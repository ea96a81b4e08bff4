package core

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// uncached returns o with the platform's outcome cache bypassed, so
// every configuration propagates from scratch.
func uncached(o CampaignOptions) CampaignOptions {
	o.noOutcomeCache = true
	return o
}
