package measure

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// scratchWorld is a 300-AS world with a noisy IP-to-AS mapper, so all
// three repair stages run, and two deployed configurations whose
// catchments differ.
func scratchWorld(t *testing.T) (w *measureWorld, cfgA, cfgB *bgp.Outcome) {
	t.Helper()
	w = newMeasureWorld(t, 21, 300, 30, 100)
	nm, err := addr.NewNoisyMapper(w.space, 0.02, 21)
	if err != nil {
		t.Fatal(err)
	}
	w.input.Mapper = nm
	cfgA, err = w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err = w.platform.Deploy(bgp.Config{Anns: []bgp.Announcement{
		{Link: 1, Prepend: 2}, {Link: 4}, {Link: 6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return w, cfgA, cfgB
}

// TestDirtyScratchMatchesFresh measures configuration A and then B on
// one scratch and requires B to come out as it does on a scratch that
// never saw A — gap index, sequence index, vote rows and hop arena all
// carry A's contents when B starts — and as the exported steps chained
// produce it.
func TestDirtyScratchMatchesFresh(t *testing.T) {
	w, cfgA, cfgB := scratchWorld(t)
	noise := DefaultNoise()
	run := func(s *scratch, out *bgp.Outcome, seed uint64) *CatchmentMeasurement {
		m, err := s.measure(out, w.vantages, w.space, noise, stats.NewRNG(seed), w.input, true, 4200)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	dirty := newScratch()
	a := run(dirty, cfgA, 1)
	b := run(dirty, cfgB, 2)
	fresh := run(newScratch(), cfgB, 2)
	if !reflect.DeepEqual(b, fresh) {
		t.Fatal("B measured after A differs from B measured on a fresh scratch")
	}
	if reflect.DeepEqual(a.Catchment, b.Catchment) {
		t.Fatal("A and B have the same catchments; the test would not see a leak")
	}
	if b.MultiCatchment == 0 {
		t.Fatal("no multi-catchment AS in B; conflict accounting not covered")
	}

	obs := Collect(cfgB, w.vantages, w.space, noise, stats.NewRNG(2))
	if err := RoundTripMRT(&obs, w.g, 4200); err != nil {
		t.Fatal(err)
	}
	if chained := Infer(obs, w.input); !reflect.DeepEqual(b, chained) {
		t.Fatal("one-pass measurement differs from Collect → RoundTripMRT → Infer")
	}
}

// TestCollectDoesNotAliasScratch checks that an Observation survives the
// pool's scratch being reused by later collections.
func TestCollectDoesNotAliasScratch(t *testing.T) {
	w, cfgA, cfgB := scratchWorld(t)
	obs := Collect(cfgA, w.vantages, w.space, DefaultNoise(), stats.NewRNG(1))
	if len(obs.Traceroutes) == 0 {
		t.Fatal("no traceroutes collected")
	}
	want := make([][]Hop, len(obs.Traceroutes))
	for k, tr := range obs.Traceroutes {
		want[k] = append([]Hop(nil), tr.Hops...)
	}
	for i := 0; i < 3; i++ {
		Collect(cfgB, w.vantages, w.space, DefaultNoise(), stats.NewRNG(uint64(i)+2))
	}
	for k, tr := range obs.Traceroutes {
		if !reflect.DeepEqual(tr.Hops, want[k]) {
			t.Fatalf("traceroute %d changed after later collections", k)
		}
	}
}

func TestGapIndex(t *testing.T) {
	tr := func(addrs ...string) Traceroute {
		var out Traceroute
		for _, s := range addrs {
			if s == "*" {
				out.Hops = append(out.Hops, dead())
			} else {
				out.Hops = append(out.Hops, resp(s))
			}
		}
		return out
	}
	seq := func(addrs ...string) []netip.Addr {
		out := make([]netip.Addr, len(addrs))
		for i, s := range addrs {
			out[i] = a(s)
		}
		return out
	}
	cases := []struct {
		name string
		trs  []Traceroute
		a, b string
		// want is the unique sequence between a and b; nil with seen
		// set means the pair conflicts, nil without that it is absent.
		want []netip.Addr
		seen bool
	}{
		{name: "one hop between",
			trs: []Traceroute{tr("1.0.0.1", "1.0.0.2", "1.0.0.3")},
			a:   "1.0.0.1", b: "1.0.0.3", want: seq("1.0.0.2"), seen: true},
		{name: "two hops between",
			trs: []Traceroute{tr("1.0.0.1", "1.0.0.2", "1.0.0.3", "1.0.0.4")},
			a:   "1.0.0.1", b: "1.0.0.4", want: seq("1.0.0.2", "1.0.0.3"), seen: true},
		{name: "three hops between",
			trs: []Traceroute{tr("1.0.0.1", "1.0.0.2", "1.0.0.3", "1.0.0.4", "1.0.0.5")},
			a:   "1.0.0.1", b: "1.0.0.5", want: seq("1.0.0.2", "1.0.0.3", "1.0.0.4"), seen: true},
		{name: "four hops between is out of window",
			trs: []Traceroute{tr("1.0.0.1", "1.0.0.2", "1.0.0.3", "1.0.0.4", "1.0.0.5", "1.0.0.6")},
			a:   "1.0.0.1", b: "1.0.0.6"},
		{name: "adjacent hops index nothing",
			trs: []Traceroute{tr("1.0.0.1", "1.0.0.2")},
			a:   "1.0.0.1", b: "1.0.0.2"},
		{name: "window stops at an unresponsive hop",
			trs: []Traceroute{tr("1.0.0.1", "*", "1.0.0.3")},
			a:   "1.0.0.1", b: "1.0.0.3"},
		{name: "same sequence twice stays unique",
			trs: []Traceroute{
				tr("1.0.0.1", "1.0.0.2", "1.0.0.3"),
				tr("9.0.0.9", "1.0.0.1", "1.0.0.2", "1.0.0.3"),
			},
			a: "1.0.0.1", b: "1.0.0.3", want: seq("1.0.0.2"), seen: true},
		{name: "a different sequence conflicts",
			trs: []Traceroute{
				tr("1.0.0.1", "1.0.0.2", "1.0.0.3"),
				tr("1.0.0.1", "1.0.0.7", "1.0.0.3"),
			},
			a: "1.0.0.1", b: "1.0.0.3", seen: true},
		{name: "a different length conflicts",
			trs: []Traceroute{
				tr("1.0.0.1", "1.0.0.2", "1.0.0.3"),
				tr("1.0.0.1", "1.0.0.2", "1.0.0.2", "1.0.0.3"),
			},
			a: "1.0.0.1", b: "1.0.0.3", seen: true},
		{name: "a conflict is never undone",
			trs: []Traceroute{
				tr("1.0.0.1", "1.0.0.2", "1.0.0.3"),
				tr("1.0.0.1", "1.0.0.7", "1.0.0.3"),
				tr("1.0.0.1", "1.0.0.2", "1.0.0.3"),
				tr("1.0.0.1", "1.0.0.2", "1.0.0.3"),
			},
			a: "1.0.0.1", b: "1.0.0.3", seen: true},
	}
	idx := make(gapIndex)
	for _, tc := range cases {
		// One index for every case: build must start from empty.
		idx.build(tc.trs)
		v, seen := idx[gapKey{a(tc.a), a(tc.b)}]
		if seen != tc.seen {
			t.Errorf("%s: pair seen=%v, want %v", tc.name, seen, tc.seen)
			continue
		}
		if !seen {
			continue
		}
		if v.conflict != (tc.want == nil) {
			t.Errorf("%s: conflict=%v, want %v", tc.name, v.conflict, tc.want == nil)
		}
		if tc.want != nil && !reflect.DeepEqual(v.seq[:v.n], tc.want) {
			t.Errorf("%s: sequence %v, want %v", tc.name, v.seq[:v.n], tc.want)
		}
	}
}

// TestRepairUsesOwnHops: the traceroute under repair contributes to the
// index it is repaired against — here it holds the only intact copy of
// the segment its own later gap needs.
func TestRepairUsesOwnHops(t *testing.T) {
	loop := Traceroute{Hops: []Hop{
		resp("1.0.0.1"), resp("1.0.0.2"), resp("1.0.0.3"),
		resp("5.0.0.5"),
		resp("1.0.0.1"), dead(), resp("1.0.0.3"),
	}}
	got := RepairUnresponsive([]Traceroute{loop})[0].Hops
	if len(got) != 7 || !got[5].Responsive || got[5].Addr != a("1.0.0.2") {
		t.Fatalf("gap not repaired from the traceroute's own hops: %v", got)
	}
}

// TestMeasureConcurrent drives the pooled scratches from eight
// goroutines at once, alternating configurations, and requires every
// result to equal the single-threaded one. Run it under -race.
func TestMeasureConcurrent(t *testing.T) {
	w, cfgA, cfgB := scratchWorld(t)
	noise := DefaultNoise()
	outs := []*bgp.Outcome{cfgA, cfgB}
	want := make([]*CatchmentMeasurement, len(outs))
	for k, out := range outs {
		m, err := newScratch().measure(out, w.vantages, w.space, noise, stats.NewRNG(uint64(k)), w.input, true, 60)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = m
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(outs)
				m, err := Measure(outs[k], w.vantages, w.space, noise, stats.NewRNG(uint64(k)), w.input, true, 60)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(m, want[k]) {
					t.Errorf("goroutine %d, pass %d: configuration %d measured differently under concurrency", g, i, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
