package cluster

import (
	"testing"
	"testing/quick"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

func labels(ls ...int) []bgp.LinkID {
	out := make([]bgp.LinkID, len(ls))
	for i, l := range ls {
		out[i] = bgp.LinkID(l)
	}
	return out
}

func TestNewSingleCluster(t *testing.T) {
	p := New(5)
	if p.NumClusters() != 1 || p.NumSources() != 5 {
		t.Fatalf("got %d clusters over %d sources", p.NumClusters(), p.NumSources())
	}
	for k := 0; k < 5; k++ {
		if p.ClusterOf(k) != 0 {
			t.Fatal("all sources must start in cluster 0")
		}
	}
}

func TestNewEmpty(t *testing.T) {
	p := New(0)
	if p.NumClusters() != 0 {
		t.Fatal("empty partition should have 0 clusters")
	}
	m := p.Summarize()
	if m.NumClusters != 0 {
		t.Fatal("empty metrics should be zero")
	}
}

func TestRefineSplits(t *testing.T) {
	p := New(6)
	p.Refine(labels(0, 0, 1, 1, 2, 2))
	if p.NumClusters() != 3 {
		t.Fatalf("got %d clusters, want 3", p.NumClusters())
	}
	if p.ClusterOf(0) != p.ClusterOf(1) || p.ClusterOf(0) == p.ClusterOf(2) {
		t.Fatal("refinement grouped wrong sources")
	}
}

func TestRefineIsIntersection(t *testing.T) {
	// Refining by two configurations separates exactly the pairs that
	// differ in at least one config.
	p := New(4)
	p.Refine(labels(0, 0, 1, 1))
	p.Refine(labels(0, 1, 0, 1))
	if p.NumClusters() != 4 {
		t.Fatalf("got %d clusters, want 4", p.NumClusters())
	}
}

func TestRefineNoLinkStaysTogether(t *testing.T) {
	p := New(4)
	p.Refine([]bgp.LinkID{0, bgp.NoLink, bgp.NoLink, 1})
	if p.NumClusters() != 3 {
		t.Fatalf("got %d clusters, want 3", p.NumClusters())
	}
	if p.ClusterOf(1) != p.ClusterOf(2) {
		t.Fatal("unobserved sources must stay together")
	}
}

func TestRefineIdempotent(t *testing.T) {
	p := New(6)
	l := labels(0, 1, 0, 1, 2, 0)
	p.Refine(l)
	before := p.NumClusters()
	p.Refine(l)
	if p.NumClusters() != before {
		t.Fatal("refining by the same labels twice must not split further")
	}
}

func TestRefineOrderIndependentClusterCount(t *testing.T) {
	a, b := New(8), New(8)
	l1 := labels(0, 0, 1, 1, 0, 1, 0, 1)
	l2 := labels(0, 1, 0, 1, 1, 1, 0, 0)
	a.Refine(l1)
	a.Refine(l2)
	b.Refine(l2)
	b.Refine(l1)
	if a.NumClusters() != b.NumClusters() {
		t.Fatal("refinement order changed the partition")
	}
	// Same groupings, possibly different ids.
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if (a.ClusterOf(i) == a.ClusterOf(j)) != (b.ClusterOf(i) == b.ClusterOf(j)) {
				t.Fatalf("pair (%d,%d) grouped differently depending on order", i, j)
			}
		}
	}
}

func TestRefinePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3).Refine(labels(0, 1))
}

func TestNumClustersAfterMatchesRefine(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		p := New(len(raw))
		// Pre-split with a derived labeling.
		pre := make([]bgp.LinkID, len(raw))
		for i, v := range raw {
			pre[i] = bgp.LinkID(v % 3)
		}
		p.Refine(pre)
		l := make([]bgp.LinkID, len(raw))
		for i, v := range raw {
			l[i] = bgp.LinkID(v % 5)
		}
		predicted := p.NumClustersAfter(l)
		cp := p.RefinedCopy(l)
		return predicted == cp.NumClusters() && p.NumClustersAfter(pre) == p.NumClusters()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := New(4)
	cp := p.Clone()
	p.Refine(labels(0, 1, 0, 1))
	if cp.NumClusters() != 1 {
		t.Fatal("clone affected by refinement of original")
	}
}

func TestSizesAndMembers(t *testing.T) {
	p := New(5)
	p.Refine(labels(0, 0, 0, 1, 1))
	sizes := p.Sizes()
	if len(sizes) != 2 || sizes[0]+sizes[1] != 5 {
		t.Fatalf("sizes = %v", sizes)
	}
	members := p.Members()
	total := 0
	for c, ms := range members {
		total += len(ms)
		if len(ms) != sizes[c] {
			t.Fatalf("members/sizes mismatch for cluster %d", c)
		}
	}
	if total != 5 {
		t.Fatal("members do not cover all sources")
	}
}

func TestSummarize(t *testing.T) {
	p := New(6)
	p.Refine(labels(0, 0, 0, 0, 1, 2))
	m := p.Summarize()
	if m.NumClusters != 3 {
		t.Fatalf("NumClusters = %d", m.NumClusters)
	}
	if m.MeanSize != 2.0 {
		t.Fatalf("MeanSize = %v, want 2", m.MeanSize)
	}
	if m.MaxSize != 4 {
		t.Fatalf("MaxSize = %d, want 4", m.MaxSize)
	}
	if m.SingletonFrac < 0.66 || m.SingletonFrac > 0.67 {
		t.Fatalf("SingletonFrac = %v, want 2/3", m.SingletonFrac)
	}
}

func TestMeanSizeWeighted(t *testing.T) {
	p := New(4)
	p.Refine(labels(0, 0, 0, 1))
	// Sizes 3 and 1: per-cluster mean 2.
	if got := p.Summarize().MeanSize; got != 2 {
		t.Fatalf("MeanSize = %v", got)
	}
}

func TestSizeCCDF(t *testing.T) {
	p := New(4)
	p.Refine(labels(0, 0, 0, 1))
	ccdf := p.SizeCCDF()
	// Sizes {3,1}: CCDF points at 1 (frac 1.0) and 3 (frac 0.5).
	want := []stats.CCDFPoint{{Value: 1, Frac: 1.0}, {Value: 3, Frac: 0.5}}
	if len(ccdf) != len(want) {
		t.Fatalf("CCDF = %v", ccdf)
	}
	for i := range want {
		if ccdf[i] != want[i] {
			t.Fatalf("CCDF = %v, want %v", ccdf, want)
		}
	}
}

func TestSizeOfSource(t *testing.T) {
	p := New(4)
	p.Refine(labels(0, 0, 0, 1))
	if p.SizeOfSource(0) != 3 || p.SizeOfSource(3) != 1 {
		t.Fatal("SizeOfSource wrong")
	}
}

func TestRefineMonotone(t *testing.T) {
	// Property: refinement never decreases the number of clusters and
	// never exceeds the number of sources.
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 128 {
			return true
		}
		p := New(len(raw))
		prev := p.NumClusters()
		for round := 0; round < 3; round++ {
			l := make([]bgp.LinkID, len(raw))
			for i, v := range raw {
				l[i] = bgp.LinkID(int(v>>uint(round)) % 4)
			}
			p.Refine(l)
			if p.NumClusters() < prev || p.NumClusters() > len(raw) {
				return false
			}
			prev = p.NumClusters()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
