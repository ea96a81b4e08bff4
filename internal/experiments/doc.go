// Package experiments contains one driver per table and figure of the
// paper's evaluation (§V). Each driver consumes a *core.Campaign — the
// fully deployed and measured default campaign, with the world and plan
// it ran on — and returns a result struct that renders the same rows or
// series the paper reports. cmd/spooftrack prints every driver's result
// for the campaign spooftrack.NewTracker builds; the examples and the
// integration tests share them.
package experiments
