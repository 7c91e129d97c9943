//go:build !race

package core

// raceEnabled reports whether the race detector is on; allocation ceilings
// take their race readings under it.
const raceEnabled = false
