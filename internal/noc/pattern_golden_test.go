package noc

import "fmt"

// patternGoldenCases extends the golden corpus with the scripted patterns
// (SimulatePattern) under both flow-control modes, with the corpus
// compute-finish skew — the credit-vs-PIM-controlled comparison on
// worst-case spatial traffic. Together with goldenCases' collectives this
// covers every pattern x both modes x the 64/256/2560 populations, so any
// behavioral drift in the flat core — one picosecond, one packet, one queue
// slot — diffs against a committed file.
func patternGoldenCases() []goldenCase {
	var cases []goldenCase

	modes := []struct {
		name string
		mode Mode
	}{
		{"credit", CreditBased},
		{"static", StaticScheduled},
	}
	// The scripted form is O(nodes x steps) messages: 4 steps pin 64/256,
	// 2 steps keep the 2560 full-machine case affordable in the suite.
	stepsFor := map[int]int{64: 4, 256: 4, 2560: 2}
	for _, pat := range TrafficPatterns() {
		for _, m := range modes {
			for _, dpus := range []int{64, 256, 2560} {
				pat, m, dpus := pat, m, dpus
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("pattern_%s_%s_%d", pat, m.name, dpus),
					run: func() (goldenResult, error) {
						cfg := goldenShape(dpus)
						res, err := SimulatePattern(cfg, m.mode, pat, goldenSkew(cfg),
							8<<10, stepsFor[dpus], 42)
						return fromResult(res), err
					},
				})
			}
		}
	}

	return cases
}
