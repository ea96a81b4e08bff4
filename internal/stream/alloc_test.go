//go:build !race

package stream

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/topo"
)

// TestWarmIngestAllocatesNothing: once the intake is warm, counting an
// event — and merging its shard into the round — allocates nothing. Behind !race, whose instrumentation allocates on its own.
func TestWarmIngestAllocatesNothing(t *testing.T) {
	p, err := New(testAttribution(), Config{
		Workers:         2,
		FlushInterval:   time.Millisecond,
		MinRoundPackets: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ev := testEvent(0)
	for i := 0; i < 4096; i++ {
		p.Ingest(ev)
	}
	if got := testing.AllocsPerRun(20000, func() { p.Ingest(ev) }); got != 0 {
		t.Fatalf("a warm Ingest allocates %v per event, want 0", got)
	}
}

// TestWarmDeployAllocatesNothing: the intake refreshes one catchment
// table in place for every deploy, so once every configuration has been
// deployed, advancing to a new one allocates nothing, though a third of
// the sources flip between routed and unrouted at every deploy.
func TestWarmDeployAllocatesNothing(t *testing.T) {
	const nSources, nConfigs = 1000, 3
	attr := Attribution{NumLinks: 4}
	for c := 0; c < nConfigs; c++ {
		row := make([]bgp.LinkID, nSources)
		for k := range row {
			row[k] = bgp.LinkID((k + c) % 4)
			if (k+c)%3 == 0 {
				row[k] = bgp.NoLink
			}
		}
		attr.Catchments = append(attr.Catchments, row)
	}
	for k := 0; k < nSources; k++ {
		attr.SourceASNs = append(attr.SourceASNs, topo.ASN(65000+k))
	}
	deploys := 0
	in, err := NewIntake(attr, Config{Workers: 1, Deploy: func(int, map[uint32]uint8) { deploys++ }})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	epoch := int64(0)
	advance := func() {
		epoch++
		if err := in.AdvanceEpoch(epoch, int(epoch%nConfigs)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*nConfigs; i++ {
		advance()
	}
	before := deploys
	if got := testing.AllocsPerRun(100, advance); got != 0 {
		t.Fatalf("a warm deploy allocates %v, want 0", got)
	}
	if deploys-before != 101 {
		t.Fatalf("%d deploys in 101 advances to a new configuration", deploys-before)
	}
}

// TestDistinctVictimsKeepHeapFlat: the intake counts per link, never per
// spoofed source, so 100 000 distinct victims — attacker-chosen keys —
// leave the live heap where one victim leaves it.
func TestDistinctVictimsKeepHeapFlat(t *testing.T) {
	const victims = 100_000
	p, err := New(testAttribution(), Config{
		Workers:         2,
		FlushInterval:   time.Millisecond,
		MinRoundPackets: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ev := testEvent(0)
	for i := 0; i < 4096; i++ {
		p.Ingest(ev)
	}
	waitUntil(t, func() bool { return p.TotalEvents() == 4096 })
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < victims; i++ {
		ev.SpoofedSrc = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		ev.IngressLink = uint8(i % 2)
		p.Ingest(ev)
	}
	waitUntil(t, func() bool { return p.TotalEvents() == 4096+victims })
	runtime.GC()
	runtime.ReadMemStats(&m1)
	const bound = 1 << 20
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > bound {
		t.Fatalf("%d distinct victims grew the live heap by %d B, want at most %d", victims, grew, bound)
	}
}
