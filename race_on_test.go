//go:build race

package csoutlier

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool drops a share of what it is given and exact AllocsPerRun
// pinning of pooled workspaces breaks.
const raceEnabled = true
