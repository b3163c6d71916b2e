//go:build !race

package csoutlier

const raceEnabled = false
