//go:build !race

package complete

// raceEnabled reports whether the race detector is on; allocation-count
// pins skip under it (instrumentation allocates).
const raceEnabled = false
