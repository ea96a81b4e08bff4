package bgp

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"spooftrack/internal/topo"
)

// TestRoutingStateLayout pins the per-AS and per-edge footprint: a
// selection is 12 bytes (an Outcome holds one per AS, a seed outcome
// two) and an adjacency slot 8.
func TestRoutingStateLayout(t *testing.T) {
	if got := unsafe.Sizeof(selection{}); got != 12 {
		t.Errorf("selection is %d bytes, want 12", got)
	}
	if got := unsafe.Sizeof(adjSlot{}); got != 8 {
		t.Errorf("adjSlot is %d bytes, want 8", got)
	}
}

// star returns a hub with the given number of leaf customers and an
// origin announcing through the hub.
func star(t *testing.T, leaves int) (*topo.Graph, Origin) {
	t.Helper()
	b := topo.NewBuilder()
	b.MarkTier1(1)
	for k := 0; k < leaves; k++ {
		if err := b.AddP2C(1, topo.ASN(2+k)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	return g, Origin{ASN: 47065, Links: []Link{{Name: "hub", Provider: g.MustIndex(1)}}}
}

// TestNewEngineRejectsWideDegree checks the degree bound a 16-bit
// tiebreak priority sets: a hub with math.MaxInt16 neighbors is the
// widest an engine takes, one more is refused.
func TestNewEngineRejectsWideDegree(t *testing.T) {
	g, o := star(t, math.MaxInt16+1)
	if _, err := NewEngine(g, o, noiseless()); err == nil {
		t.Fatalf("hub with %d neighbors accepted", math.MaxInt16+1)
	}
	g, o = star(t, math.MaxInt16)
	e, err := NewEngine(g, o, noiseless())
	if err != nil {
		t.Fatalf("hub with %d neighbors: %v", math.MaxInt16, err)
	}
	hub := e.row(g.MustIndex(1))
	pris := make([]int, len(hub))
	for k, nb := range hub {
		pris[k] = int(nb.pri)
	}
	slices.Sort(pris)
	for k, p := range pris {
		if p != k {
			t.Fatalf("hub priorities are not a permutation of 0..%d: rank %d is %d", len(hub)-1, k, p)
		}
	}
	if n := numRouted(propagate(t, e, Config{Anns: []Announcement{{Link: 0}}})); n != g.NumASes() {
		t.Fatalf("%d of %d ASes routed through the hub", n, g.NumASes())
	}
}

// TestReverseSlots checks the flat adjacency against the graph: every
// slot names the graph's neighbor with its relationship, in the graph's
// order, and rsl points at the mirror slot.
func TestReverseSlots(t *testing.T) {
	g, o := worldForTest(t, 12, 800)
	e := newEngine(t, g, o, DefaultParams(12))
	for i := 0; i < g.NumASes(); i++ {
		ns := g.Neighbors(i)
		row := e.row(i)
		if len(row) != len(ns) {
			t.Fatalf("AS %d: %d slots for %d neighbors", i, len(row), len(ns))
		}
		for k, nb := range ns {
			if int(row[k].idx) != nb.Idx || row[k].rel != nb.Rel {
				t.Fatalf("AS %d slot %d = %+v, graph neighbor %+v", i, k, row[k], nb)
			}
			back := e.adj[e.rsl[int(e.off[i])+k]]
			if int(back.idx) != i || back.rel != nb.Rel.Invert() {
				t.Fatalf("AS %d slot %d: mirror slot %+v", i, k, back)
			}
		}
	}
}
