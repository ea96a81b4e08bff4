//go:build !race

package shard

import (
	"runtime"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
)

// TestStatusCostIndependentOfCandidates: Controller.Status counts the
// candidates without copying them, so answering it allocates as often,
// and as many bytes, with 1000 candidates as with 2. Behind !race, whose
// instrumentation allocates on its own.
func TestStatusCostIndependentOfCandidates(t *testing.T) {
	const runs = 100
	cost := func(sources int) (allocs float64, bytes uint64) {
		attr := stream.Attribution{
			Catchments: [][]bgp.LinkID{make([]bgp.LinkID, sources)},
			SourceASNs: make([]topo.ASN, sources),
			NumLinks:   1,
		}
		ct, err := NewController(ControllerConfig{ID: "c", Attr: attr, Members: []string{"s0"},
			Transport: NewLocalTransport(nil), Lease: NewMemLease()})
		if err != nil {
			t.Fatal(err)
		}
		if got := ct.Status().Candidates; got != sources {
			t.Fatalf("%d candidates before any fold, want every one of %d sources", got, sources)
		}
		allocs = testing.AllocsPerRun(runs, func() { ct.Status() })
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			ct.Status()
		}
		runtime.ReadMemStats(&m1)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	fewAllocs, fewBytes := cost(2)
	manyAllocs, manyBytes := cost(1000)
	// 1000 candidates copied would be 8000 B a call.
	if manyAllocs != fewAllocs || manyBytes > fewBytes+512 {
		t.Fatalf("Status allocates %v times, %d B, with 1000 candidates and %v times, %d B, with 2",
			manyAllocs, manyBytes, fewAllocs, fewBytes)
	}
}
