package core

import (
	"runtime"
	"testing"
	"time"

	"spooftrack/internal/provenance"
	"spooftrack/internal/stats"
)

// BenchmarkCampaignLedgerBudget gates the decision-provenance ledger: a
// full UseTruth campaign — including the final-partition verdict every
// consumer derives — recorded into a ledger may cost at most 1.05x the
// same campaign with the ledger nil. The ledger is a nil check per event
// site when off and lock-sharded appends when on, so anything beyond 5%
// means an allocation leaked onto the hot path.
func BenchmarkCampaignLedgerBudget(b *testing.B) {
	w := smallWorld(b, 3)
	plan, err := w.DefaultPlan()
	if err != nil {
		b.Fatal(err)
	}
	campaign := func(withLedger bool) float64 {
		var led *provenance.Ledger
		if withLedger {
			led = provenance.New(provenance.Options{})
		}
		runtime.GC() // neither side pays for the other's garbage
		start := time.Now()
		// Uncached: every campaign pays the real propagation cost (a
		// warm cache would shrink the denominator to cache lookups and
		// make the fixed ledger cost look relatively huge). One deploy
		// worker: on two CPUs a parallel pool's scheduling spreads the
		// samples wider than the budget is.
		c, err := w.RunCampaign(plan, uncached(CampaignOptions{UseTruth: true, Parallelism: 1, Ledger: led}))
		if err != nil {
			b.Fatal(err)
		}
		if c.FinalPartition().NumClusters() == 0 {
			b.Fatal("empty final partition")
		}
		return float64(time.Since(start).Nanoseconds())
	}
	var ns []float64
	for i := 0; i < b.N; i++ {
		ns = stats.MinOf(5,
			func() float64 { return campaign(false) },
			func() float64 { return campaign(true) })
	}
	ratio := ns[1] / ns[0]
	b.ReportMetric(ns[0], "off-ns/campaign")
	b.ReportMetric(ns[1], "on-ns/campaign")
	b.ReportMetric(ratio, "on/off")
	if ratio > 1.05 {
		b.Fatalf("campaign with the ledger costs %.3fx the ledger-off baseline, budget is 1.05x", ratio)
	}
}
