//go:build !race

package stream

const raceEnabled = false
