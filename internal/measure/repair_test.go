package measure

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"spooftrack/internal/stats"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

// hopOf is the hop that answers from ip.
func hopOf(ip netip.Addr) Hop {
	b := ip.As4()
	return Hop(binary.BigEndian.Uint32(b[:]))
}

func resp(s string) Hop { return hopOf(a(s)) }
func dead() Hop         { return 0 }

func TestRepairSubstitutesUniqueSequence(t *testing.T) {
	// Reference traceroute shows 1.1.1.1 -> 2.2.2.2 -> 3.3.3.3; the
	// broken one has a timeout where 2.2.2.2 should be.
	ref := Traceroute{Hops: []Hop{resp("1.1.1.1"), resp("2.2.2.2"), resp("3.3.3.3")}}
	broken := Traceroute{Hops: []Hop{resp("1.1.1.1"), dead(), resp("3.3.3.3")}}
	out := RepairUnresponsive([]Traceroute{ref, broken})
	got := out[1].Hops
	if len(got) != 3 || !got[1].Responsive() || got[1].Addr() != a("2.2.2.2") {
		t.Fatalf("repair failed: %v", out[1].Hops)
	}
	// Reference must be untouched.
	if len(out[0].Hops) != 3 || out[0].Hops[1].Addr() != a("2.2.2.2") {
		t.Fatal("reference traceroute modified")
	}
}

func TestRepairSkipsConflictingSequences(t *testing.T) {
	// Two references disagree about what lies between 1.1.1.1 and
	// 3.3.3.3: no substitution may happen.
	ref1 := Traceroute{Hops: []Hop{resp("1.1.1.1"), resp("2.2.2.2"), resp("3.3.3.3")}}
	ref2 := Traceroute{Hops: []Hop{resp("1.1.1.1"), resp("9.9.9.9"), resp("3.3.3.3")}}
	broken := Traceroute{Hops: []Hop{resp("1.1.1.1"), dead(), resp("3.3.3.3")}}
	out := RepairUnresponsive([]Traceroute{ref1, ref2, broken})
	got := out[2].Hops
	if len(got) != 3 || got[1].Responsive() {
		t.Fatalf("conflicting repair applied: %v", out[2].Hops)
	}
}

func TestRepairMultiHopGap(t *testing.T) {
	ref := Traceroute{Hops: []Hop{resp("1.1.1.1"), resp("2.2.2.2"), resp("4.4.4.4"), resp("3.3.3.3")}}
	broken := Traceroute{Hops: []Hop{resp("1.1.1.1"), dead(), dead(), resp("3.3.3.3")}}
	out := RepairUnresponsive([]Traceroute{ref, broken})
	got := out[1].Hops
	if len(got) != 4 || got[1].Addr() != a("2.2.2.2") || got[2].Addr() != a("4.4.4.4") {
		t.Fatalf("multi-hop repair failed: %v", out[1].Hops)
	}
}

func TestRepairLeavesEdgeGaps(t *testing.T) {
	// Gaps at the beginning or end have no surrounding pair; keep as-is.
	tr := Traceroute{Hops: []Hop{dead(), resp("1.1.1.1"), resp("2.2.2.2"), dead()}}
	out := RepairUnresponsive([]Traceroute{tr})
	got := out[0].Hops
	if len(got) != 4 || got[0].Responsive() || got[3].Responsive() {
		t.Fatalf("edge gaps modified: %v", out[0].Hops)
	}
}

func TestRepairNoReferenceKeepsGap(t *testing.T) {
	broken := Traceroute{Hops: []Hop{resp("1.1.1.1"), dead(), resp("3.3.3.3")}}
	out := RepairUnresponsive([]Traceroute{broken})
	if out[0].Hops[1].Responsive() {
		t.Fatal("gap filled without any reference")
	}
}

func TestRepairPreservesMetadata(t *testing.T) {
	tr := Traceroute{ProbeAS: 42, Reached: true, Hops: []Hop{resp("1.1.1.1")}}
	out := RepairUnresponsive([]Traceroute{tr})
	if out[0].ProbeAS != 42 || !out[0].Reached {
		t.Fatal("metadata lost during repair")
	}
}

// fullSeen is what the full index holds for one pair: the first
// sequence seen between it, and whether another one was seen too.
type fullSeen struct {
	seq      []Hop
	conflict bool
}

// fullIndex indexes the sequence between every pair of responsive hops
// one to three hops apart in a fully responsive window, queried or not.
func fullIndex(trs []Traceroute) map[[2]Hop]*fullSeen {
	idx := map[[2]Hop]*fullSeen{}
	for _, tr := range trs {
		h := tr.Hops
		for i := range h {
			for j := i + 1; j < len(h) && h[i].Responsive() && h[j].Responsive() && j-i <= maxGapSeq+1; j++ {
				if j-i < 2 {
					continue
				}
				seq := slices.Clone(h[i+1 : j])
				key := [2]Hop{h[i], h[j]}
				if v, ok := idx[key]; !ok {
					idx[key] = &fullSeen{seq: seq}
				} else if !slices.Equal(v.seq, seq) {
					v.conflict = true
				}
			}
		}
	}
	return idx
}

// fullIndexRepair is the reference for RepairUnresponsive: it repairs
// each unresponsive run from the full index.
func fullIndexRepair(trs []Traceroute) []Traceroute {
	idx := fullIndex(trs)
	out := make([]Traceroute, len(trs))
	for k, tr := range trs {
		out[k] = tr
		var hops []Hop
		h := tr.Hops
		for i := 0; i < len(h); {
			if h[i].Responsive() {
				hops = append(hops, h[i])
				i++
				continue
			}
			j := i
			for j < len(h) && !h[j].Responsive() {
				j++
			}
			if i > 0 && j < len(h) {
				if v, ok := idx[[2]Hop{h[i-1], h[j]}]; ok && !v.conflict {
					hops = append(hops, v.seq...)
					i = j
					continue
				}
			}
			hops = append(hops, h[i:j]...)
			i = j
		}
		out[k].Hops = hops
	}
	return out
}

// TestRepairMatchesFullIndex compares RepairUnresponsive, whose index
// holds only the pairs a gap queries, with the full-index reference on
// seeded random traceroutes: a small router pool, so routers repeat
// within and across traceroutes and pairs see conflicting sequences,
// and unresponsive runs of every length, including at either end.
func TestRepairMatchesFullIndex(t *testing.T) {
	rng := stats.NewRNG(11)
	repaired := 0
	for trial := 0; trial < 300; trial++ {
		pool := 3 + rng.Intn(20)
		pDead := 0.05 + 0.5*rng.Float64()
		trs := make([]Traceroute, 1+rng.Intn(40))
		for k := range trs {
			trs[k].ProbeAS = k
			for n := rng.Intn(14); n > 0; n-- {
				if rng.Bool(pDead) {
					trs[k].Hops = append(trs[k].Hops, dead())
					continue
				}
				trs[k].Hops = append(trs[k].Hops, hopOf(netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(pool))})))
			}
		}
		got, want := RepairUnresponsive(trs), fullIndexRepair(trs)
		if !reflect.DeepEqual(got, want) {
			for k := range got {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Fatalf("trial %d, traceroute %d %v:\n got %v\nwant %v", trial, k, trs[k].Hops, got[k].Hops, want[k].Hops)
				}
			}
		}
		for k := range want {
			if !reflect.DeepEqual(want[k].Hops, trs[k].Hops) {
				repaired++
			}
		}
	}
	if repaired < 100 {
		t.Fatalf("only %d traceroutes repaired; the comparison covers too little", repaired)
	}
	checkFilterCollisions(t)
}

// checkFilterCollisions is TestRepairMatchesFullIndex on hops picked to
// defeat the gap index's filters: unregistered pairs whose left hop
// shares a filter bit with a registered pair's left hop, unregistered
// pairs that share a pair bit with a registered one, (l2, r4) and
// (l, r2) sharing both and so reaching the table, and two registered
// pairs that share a pair bit and so a home slot in the table. The
// index must hold exactly the full index's entry for every registered
// pair and nothing for the others, and every repaired hop must match.
func checkFilterCollisions(t *testing.T) {
	t.Helper()
	// next returns the first hop after from whose slot is want's.
	next := func(from Hop, slot func(Hop) uint32, want uint32) Hop {
		for h := from + 1; ; h++ {
			if h != 0 && slot(h) == want {
				return h
			}
		}
	}
	leftSlot := func(h Hop) uint32 { return filterSlot(uint64(h)) }
	l, r := resp("10.0.0.1"), resp("10.0.1.1")
	pairSlot := func(right Hop) func(Hop) uint32 {
		return func(left Hop) uint32 { return filterSlot(gapKey(left, right)) }
	}
	rightSlot := func(left Hop) func(Hop) uint32 {
		return func(right Hop) uint32 { return filterSlot(gapKey(left, right)) }
	}
	l2 := next(l, leftSlot, leftSlot(l))                   // shares l's left bit
	r2 := next(r, rightSlot(l), filterSlot(gapKey(l, r)))  // (l, r2) shares (l, r)'s pair bit
	r3 := next(r2, rightSlot(l), filterSlot(gapKey(l, r))) // so does (l, r3)
	l3 := next(l2, pairSlot(r), filterSlot(gapKey(l, r)))  // and (l3, r)
	r4 := next(r, rightSlot(l2), filterSlot(gapKey(l, r))) // and (l2, r4), whose left shares l's bit
	a, b, c, d := resp("11.0.0.1"), resp("11.0.0.2"), resp("11.0.0.3"), resp("11.0.0.4")
	trs := []Traceroute{
		// Registered: (l, r) and (l, r3), which share a pair bit.
		{Hops: []Hop{l, 0, r}},
		{Hops: []Hop{l, 0, 0, r3}},
		// Windows of the registered pairs: (l, r) unique, (l, r3)
		// conflicting.
		{Hops: []Hop{l, a, r, d}},
		{Hops: []Hop{c, l, a, b, r3}},
		{Hops: []Hop{l, a, c, r3}},
		// Windows of unregistered pairs that pass one filter or both.
		{Hops: []Hop{l, b, r2}},
		{Hops: []Hop{l2, c, r}},
		{Hops: []Hop{l3, d, r}},
		{Hops: []Hop{l2, a, b, c, r4}},
		{Hops: []Hop{d, l2, b, r4, a}},
	}
	var idx gapIndex
	idx.build(trs)
	full := fullIndex(trs)
	registered := map[[2]Hop]bool{{l, r}: true, {l, r3}: true}
	for _, p := range [][2]Hop{{l, r}, {l, r3}, {l, r2}, {l2, r}, {l3, r}, {l2, r4}} {
		v, ok := idx.lookup(gapKey(p[0], p[1]))
		if ok != registered[p] {
			t.Errorf("pair %v registered %v, want %v", p, ok, registered[p])
			continue
		}
		want, seen := full[p]
		if !ok || (!seen && v.n == 0) {
			continue
		}
		if !seen || v.conflict != want.conflict || (!v.conflict && !slices.Equal(v.seq[:v.n], want.seq)) {
			t.Errorf("pair %v: index holds %v (conflict %v), full index %+v", p, v.seq[:v.n], v.conflict, want)
		}
	}
	if n := idx.pairCount(); n != len(registered) {
		t.Errorf("%d pairs registered, want %d", n, len(registered))
	}
	if got, want := RepairUnresponsive(trs), fullIndexRepair(trs); !reflect.DeepEqual(got, want) {
		t.Errorf("filter collisions: repaired\n %v\nwant\n %v", got, want)
	}
}
