package explore

// Test-only access to the random-mode pilot for the external test
// package, which can import the benchmark ports (they import explore).

// CountingPilot is countingPilot.
var CountingPilot = countingPilot

// PilotCounts returns the crash-point ranges planRandom sizes for p.
func PilotCounts(p Program, opt Options) []int { return planRandom(p, &opt).pilotCounts }
