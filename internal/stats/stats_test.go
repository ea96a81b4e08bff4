package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at %d: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d has fraction %.4f, want ~0.1", i, frac)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(9)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams start identically")
	}
}

func TestCCDFBasic(t *testing.T) {
	pts := CCDF([]float64{1, 1, 2, 4})
	want := []CCDFPoint{{1, 1.0}, {2, 0.5}, {4, 0.25}}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d: %v", len(pts), len(want), pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestCCDFEmpty(t *testing.T) {
	if pts := CCDF(nil); pts != nil {
		t.Fatalf("CCDF(nil) = %v, want nil", pts)
	}
}

func TestCCDFProperties(t *testing.T) {
	// Property: CCDF is non-increasing in Frac, starts at 1.0, values
	// strictly increasing, and every Frac is in (0, 1].
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		pts := CCDF(samples)
		if pts[0].Frac != 1.0 {
			return false
		}
		for i := range pts {
			if pts[i].Frac <= 0 || pts[i].Frac > 1 {
				return false
			}
			if i > 0 && (pts[i].Frac >= pts[i-1].Frac || pts[i].Value <= pts[i-1].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFracGreater(t *testing.T) {
	s := []int{1, 1, 5, 26, 30}
	if got := FracGreater(s, 25); got != 0.4 {
		t.Fatalf("FracGreater(25) = %v, want 0.4", got)
	}
	if got := FracGreater(nil, 0); got != 0 {
		t.Fatalf("FracGreater(nil) = %v, want 0", got)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v, want 2", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", m)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{7}, 90); got != 7 {
		t.Fatalf("Percentile of singleton = %v, want 7", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []uint8, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		p1 := float64(pRaw) / 255 * 100
		p2 := p1 / 2
		return Percentile(samples, p2) <= Percentile(samples, p1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParetoShape8020(t *testing.T) {
	// Verify that with the 80-20 shape, the top 20% of a large sample
	// holds roughly 80% of the mass.
	r := NewRNG(123)
	const n = 200000
	xs := make([]float64, n)
	total := 0.0
	for i := range xs {
		xs[i] = r.Pareto(1, ParetoShape8020)
		total += xs[i]
	}
	sort.Float64s(xs)
	top := 0.0
	for _, v := range xs[n*8/10:] {
		top += v
	}
	frac := top / total
	if frac < 0.72 || frac > 0.88 {
		t.Fatalf("top-20%% mass fraction = %.3f, want ~0.8", frac)
	}
}

func TestParetoMin(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto(2, 1.5) = %v below minimum", v)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Max != 4 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("Summarize(nil) = %+v, want zero", z)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestParetoPanics(t *testing.T) {
	r := NewRNG(1)
	for _, f := range []func(){
		func() { r.Pareto(0, 1) },
		func() { r.Pareto(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(2)
	always, never := 0, 0
	for i := 0; i < 1000; i++ {
		if r.Bool(1.0) {
			always++
		}
		if r.Bool(0.0) {
			never++
		}
	}
	if always != 1000 || never != 0 {
		t.Fatalf("Bool boundaries wrong: %d / %d", always, never)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.P25 != 3 || s.P90 != 3 || s.Max != 3 {
		t.Fatalf("singleton summary %+v", s)
	}
}

func TestCCDFIntsMatchesFloat(t *testing.T) {
	a := CCDFInts([]int{3, 1, 1})
	b := CCDF([]float64{3, 1, 1})
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs", i)
		}
	}
}
