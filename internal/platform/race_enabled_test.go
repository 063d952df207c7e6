//go:build race

package platform

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation slows the simulator by an order of
// magnitude; the long equivalence campaigns run fewer runs there.
const raceEnabled = true
