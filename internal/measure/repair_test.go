package measure

import (
	"net/netip"
	"testing"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

func resp(s string) Hop { return Hop{Addr: a(s), Responsive: true} }
func dead() Hop         { return Hop{} }

func TestRepairSubstitutesUniqueSequence(t *testing.T) {
	// Reference traceroute shows 1.1.1.1 -> 2.2.2.2 -> 3.3.3.3; the
	// broken one has a timeout where 2.2.2.2 should be.
	ref := Traceroute{Hops: []Hop{resp("1.1.1.1"), resp("2.2.2.2"), resp("3.3.3.3")}}
	broken := Traceroute{Hops: []Hop{resp("1.1.1.1"), dead(), resp("3.3.3.3")}}
	out := RepairUnresponsive([]Traceroute{ref, broken})
	got := out[1].Hops
	if len(got) != 3 || !got[1].Responsive || got[1].Addr != a("2.2.2.2") {
		t.Fatalf("repair failed: %v", out[1].Hops)
	}
	// Reference must be untouched.
	if len(out[0].Hops) != 3 || out[0].Hops[1].Addr != a("2.2.2.2") {
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
	if len(got) != 3 || got[1].Responsive {
		t.Fatalf("conflicting repair applied: %v", out[2].Hops)
	}
}

func TestRepairMultiHopGap(t *testing.T) {
	ref := Traceroute{Hops: []Hop{resp("1.1.1.1"), resp("2.2.2.2"), resp("4.4.4.4"), resp("3.3.3.3")}}
	broken := Traceroute{Hops: []Hop{resp("1.1.1.1"), dead(), dead(), resp("3.3.3.3")}}
	out := RepairUnresponsive([]Traceroute{ref, broken})
	got := out[1].Hops
	if len(got) != 4 || got[1].Addr != a("2.2.2.2") || got[2].Addr != a("4.4.4.4") {
		t.Fatalf("multi-hop repair failed: %v", out[1].Hops)
	}
}

func TestRepairLeavesEdgeGaps(t *testing.T) {
	// Gaps at the beginning or end have no surrounding pair; keep as-is.
	tr := Traceroute{Hops: []Hop{dead(), resp("1.1.1.1"), resp("2.2.2.2"), dead()}}
	out := RepairUnresponsive([]Traceroute{tr})
	got := out[0].Hops
	if len(got) != 4 || got[0].Responsive || got[3].Responsive {
		t.Fatalf("edge gaps modified: %v", out[0].Hops)
	}
}

func TestRepairNoReferenceKeepsGap(t *testing.T) {
	broken := Traceroute{Hops: []Hop{resp("1.1.1.1"), dead(), resp("3.3.3.3")}}
	out := RepairUnresponsive([]Traceroute{broken})
	if out[0].Hops[1].Responsive {
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
