package core

import (
	"runtime"
	"syscall"
	"testing"

	"spooftrack/internal/provenance"
	"spooftrack/internal/stats"
)

// BenchmarkCampaignLedgerBudget gates the decision-provenance ledger: a
// full UseTruth campaign — including the final-partition verdict every
// consumer derives — recorded into a ledger may cost at most 1.05x the
// CPU time of the same campaign with the ledger nil. The ledger is a nil
// check per event site when off and appends under one mutex when on, so
// anything beyond 5% means an allocation leaked onto the hot path.
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
		start := processCPU()
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
		return float64(processCPU() - start)
	}
	// The median of each round's on/off ratio of process CPU time, not
	// the ratio of each side's minimum wall time: on a shared two-CPU
	// machine the rare fast campaign that sets a side's minimum is an
	// outlier of that side alone, so a ratio of minima follows two
	// extreme samples and widens with more rounds, while a round's two
	// campaigns share the machine's state and their ratio is the
	// ledger's cost. CPU time leaves out the time other processes hold
	// the CPUs and still counts the collector's work on the ledger's
	// heap. The side running first alternates by round.
	const rounds = 15
	var ratio, off, on float64
	for i := 0; i < b.N; i++ {
		ratios := make([]float64, rounds)
		offs := make([]float64, rounds)
		ons := make([]float64, rounds)
		for r := range ratios {
			if r%2 == 0 {
				offs[r] = campaign(false)
				ons[r] = campaign(true)
			} else {
				ons[r] = campaign(true)
				offs[r] = campaign(false)
			}
			ratios[r] = ons[r] / offs[r]
		}
		ratio = stats.Percentile(ratios, 50)
		off, on = stats.Percentile(offs, 50), stats.Percentile(ons, 50)
	}
	b.ReportMetric(off, "off-ns/campaign")
	b.ReportMetric(on, "on-ns/campaign")
	b.ReportMetric(ratio, "on/off")
	if ratio > 1.05 {
		b.Fatalf("campaign with the ledger costs %.3fx the ledger-off baseline, budget is 1.05x", ratio)
	}
}

// processCPU returns the CPU time (user and system) the process has
// consumed, in nanoseconds: every goroutine's and the collector's.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
