package experiments

import "spooftrack/internal/core"

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// HijackScenarios quantifies the §VI observation that a configuration
// announcing from n locations covers 2^n prefix-hijack scenarios (every
// location can be a legitimate origin or a hijacker): it returns the
// total number of hijack scenarios the campaign's location-phase
// configurations cover.
func HijackScenarios(camp *core.Campaign) int {
	total := 0
	for _, pc := range camp.Plan {
		total += 1 << len(pc.Config.Anns)
	}
	return total
}
