package stream

import (
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/topo"
)

// TestStatusAllocationsDoNotScaleWithCandidates: Status runs under the
// pipeline lock, so it must size clusters from one table however many
// candidates carry volume — not rebuild the table per candidate.
func TestStatusAllocationsDoNotScaleWithCandidates(t *testing.T) {
	const nSources = 1000
	row := make([]bgp.LinkID, nSources)
	asns := make([]topo.ASN, nSources)
	for k := range row {
		row[k] = bgp.LinkID(k % 2)
		asns[k] = topo.ASN(65000 + k)
	}
	attr := Attribution{Catchments: [][]bgp.LinkID{row}, SourceASNs: asns, NumLinks: 2}
	// The round never folds, so every source stays a candidate and both
	// links keep their round volume for Status to attribute.
	p, err := New(attr, Config{
		Workers:         1,
		FlushInterval:   time.Millisecond,
		EvalInterval:    time.Hour,
		MinRoundPackets: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Ingest(testEvent(0))
	p.Ingest(testEvent(1))
	for deadline := time.Now().Add(5 * time.Second); p.TotalEvents() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("events never flushed")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if got := len(p.Status(nSources).TopSources); got != nSources {
		t.Fatalf("Status attributes volume to %d sources, want all %d", got, nSources)
	}
	if allocs := testing.AllocsPerRun(10, func() { p.Status(10) }); allocs > 100 {
		t.Fatalf("Status over %d volume-bearing candidates makes %v allocations; a size table per candidate?", nSources, allocs)
	}
}
