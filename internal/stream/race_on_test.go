//go:build race

package stream

// raceEnabled reports that this binary was built with -race, whose
// instrumentation allocates and breaks exact AllocsPerRun pinning.
const raceEnabled = true
