//go:build race

package cluster

// raceEnabled reports that this binary was built with -race, whose
// instrumentation allocates and breaks exact AllocsPerRun pinning.
const raceEnabled = true
