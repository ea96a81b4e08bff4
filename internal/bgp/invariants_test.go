package bgp

import (
	"slices"
	"sort"
	"testing"

	"spooftrack/internal/topo"
)

// worldForTest generates a mid-sized topology and an origin attached to
// seven high-customer-degree transit providers, mirroring the PEERING
// setup at reduced scale.
func worldForTest(t testing.TB, seed uint64, numASes int) (*topo.Graph, Origin) {
	p := topo.DefaultGenParams(seed)
	p.NumASes = numASes
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	transit := g.TransitASes()
	sort.Slice(transit, func(i, j int) bool {
		ci, cj := g.NumCustomers(transit[i]), g.NumCustomers(transit[j])
		if ci != cj {
			return ci > cj
		}
		return transit[i] < transit[j]
	})
	// Skip tier-1s: PEERING buys from regional transit providers.
	var provs []int
	for _, idx := range transit {
		if !g.IsTier1(idx) {
			provs = append(provs, idx)
		}
		if len(provs) == 7 {
			break
		}
	}
	if len(provs) < 7 {
		t.Fatalf("topology too small for 7 providers")
	}
	links := make([]Link, 7)
	for i, p := range provs {
		links[i] = Link{Name: "mux" + string(rune('A'+i)), Provider: p}
	}
	return g, Origin{ASN: 47065, Links: links}
}

func allLinksConfig(n int) Config {
	anns := make([]Announcement, n)
	for i := range anns {
		anns[i] = Announcement{Link: LinkID(i)}
	}
	return Config{Anns: anns}
}

func TestFullAnycastRoutesEveryone(t *testing.T) {
	g, o := worldForTest(t, 42, 1200)
	e := newEngine(t, g, o, noiseless())
	out := propagate(t, e, allLinksConfig(7))
	if n := numRouted(out); n != g.NumASes() {
		t.Fatalf("only %d of %d ASes routed under full anycast", n, g.NumASes())
	}
	// All 7 catchments should be non-empty for well-spread providers.
	c := map[LinkID]bool{}
	for _, l := range out.CatchmentVector() {
		c[l] = true
	}
	if len(c) < 5 {
		t.Errorf("only %d non-empty catchments; providers are poorly spread", len(c))
	}
}

func TestCatchmentsPartitionRoutedASes(t *testing.T) {
	g, o := worldForTest(t, 43, 1000)
	e := newEngine(t, g, o, DefaultParams(43))
	out := propagate(t, e, allLinksConfig(7))
	for i, l := range out.CatchmentVector() {
		if (l != NoLink) != out.HasRoute(i) {
			t.Fatalf("AS%d: catchment %d, has route %v", g.ASN(i), l, out.HasRoute(i))
		}
	}
}

func TestPropagationDeterministic(t *testing.T) {
	g, o := worldForTest(t, 44, 800)
	cfg := Config{Anns: []Announcement{
		{Link: 0}, {Link: 2, Prepend: 4}, {Link: 5, Poison: []topo.ASN{g.ASN(20)}},
	}}
	e1 := newEngine(t, g, o, DefaultParams(7))
	e2 := newEngine(t, g, o, DefaultParams(7))
	v1 := propagate(t, e1, cfg).CatchmentVector()
	v2 := propagate(t, e2, cfg).CatchmentVector()
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("catchment of AS%d differs across identical engines", g.ASN(i))
		}
	}
}

func TestValleyFreePathsWithoutNoise(t *testing.T) {
	g, o := worldForTest(t, 45, 1000)
	e := newEngine(t, g, o, noiseless())
	out := propagate(t, e, allLinksConfig(7))
	for i := 0; i < g.NumASes(); i++ {
		dp := out.DataPath(i)
		if dp == nil {
			continue
		}
		// Forwarding direction src -> ... -> provider -> origin.
		// Valley-free: a sequence of up (to provider) steps, at most one
		// peer step, then down (to customer) steps.
		phase := 0 // 0 = climbing, 1 = after peer step, 2 = descending
		for k := 0; k+1 < len(dp); k++ {
			rel, ok := g.Rel(dp[k], dp[k+1])
			if !ok {
				t.Fatalf("non-adjacent hops in path of AS%d", g.ASN(i))
			}
			switch rel {
			case topo.RelProvider: // moving up
				if phase != 0 {
					t.Fatalf("AS%d path climbs after peak: %v", g.ASN(i), pathASNs(g, dp))
				}
			case topo.RelPeer:
				if phase >= 1 {
					t.Fatalf("AS%d path has two peer steps: %v", g.ASN(i), pathASNs(g, dp))
				}
				phase = 1
			case topo.RelCustomer: // moving down
				phase = 2
			}
		}
	}
}

func pathASNs(g *topo.Graph, dp []int) []topo.ASN {
	out := make([]topo.ASN, len(dp))
	for i, idx := range dp {
		out[i] = g.ASN(idx)
	}
	return out
}

func TestASPathMatchesDataPathPlusStuffing(t *testing.T) {
	g, o := worldForTest(t, 46, 600)
	e := newEngine(t, g, o, DefaultParams(46))
	cfg := Config{Anns: []Announcement{{Link: 0, Prepend: 2}, {Link: 1}}}
	out := propagate(t, e, cfg)
	for i := 0; i < g.NumASes(); i += 13 {
		dp, ap := out.DataPath(i), out.ASPath(i)
		if dp == nil {
			continue
		}
		for k, idx := range dp {
			if ap[k] != g.ASN(idx) {
				t.Fatalf("ASPath prefix diverges from DataPath at hop %d for AS%d", k, g.ASN(i))
			}
		}
		ann := out.Config().Anns[0]
		if out.CatchmentOf(i) == 1 {
			ann = out.Config().Anns[1]
		}
		if len(ap) != len(dp)+ann.PathLen() {
			t.Fatalf("ASPath length %d != data %d + announcement %d", len(ap), len(dp), ann.PathLen())
		}
	}
}

func TestWithdrawingLinkMovesItsCatchment(t *testing.T) {
	g, o := worldForTest(t, 47, 1000)
	e := newEngine(t, g, o, noiseless())
	full := propagate(t, e, allLinksConfig(7))
	// Withdraw link 0; every AS previously on link 0 must move elsewhere
	// (or lose its route), and ASes on other links should mostly stay.
	cfg := Config{}
	for l := 1; l < 7; l++ {
		cfg.Anns = append(cfg.Anns, Announcement{Link: LinkID(l)})
	}
	reduced := propagate(t, e, cfg)
	moved := 0
	for i := 0; i < g.NumASes(); i++ {
		if full.CatchmentOf(i) == 0 {
			if l := reduced.CatchmentOf(i); l == 0 {
				t.Fatalf("AS%d still in withdrawn catchment", g.ASN(i))
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("link 0 had an empty catchment; test is vacuous")
	}
}

func TestPrependShrinksCatchment(t *testing.T) {
	g, o := worldForTest(t, 48, 1000)
	e := newEngine(t, g, o, noiseless())
	plain := propagate(t, e, allLinksConfig(7))
	cfg := allLinksConfig(7)
	cfg.Anns[0].Prepend = 4
	prepended := propagate(t, e, cfg)
	before := catchmentSize(plain, 0)
	after := catchmentSize(prepended, 0)
	if after > before {
		t.Fatalf("prepending link 0 grew its catchment: %d -> %d", before, after)
	}
	if before == 0 {
		t.Fatal("link 0 catchment empty; vacuous")
	}
}

// catchmentSize counts the ASes whose traffic enters on link l.
func catchmentSize(out *Outcome, l LinkID) int {
	n := 0
	for _, c := range out.CatchmentVector() {
		if c == l {
			n++
		}
	}
	return n
}

func TestConcurrentPropagateSafe(t *testing.T) {
	g, o := worldForTest(t, 49, 600)
	e := newEngine(t, g, o, DefaultParams(49))
	done := make(chan []LinkID, 4)
	for k := 0; k < 4; k++ {
		go func() {
			out, err := e.Propagate(allLinksConfig(7))
			if err != nil {
				done <- nil
				return
			}
			done <- out.CatchmentVector()
		}()
	}
	var first []LinkID
	for k := 0; k < 4; k++ {
		v := <-done
		if v == nil {
			t.Fatal("concurrent propagate failed")
		}
		if first == nil {
			first = v
			continue
		}
		for i := range v {
			if v[i] != first[i] {
				t.Fatal("concurrent propagations disagree")
			}
		}
	}
}

// TestDataPathVariantsAgree ties the allocation-free walks to DataPath:
// DataPathLen is its length, AppendDataPath extends a caller's buffer by
// exactly it (and leaves the buffer alone for an unrouted AS), and
// AppendASPath does the same with the AS-path, which ends in the
// announcement's initial path, and allocates nothing into a buffer with
// room.
func TestDataPathVariantsAgree(t *testing.T) {
	g, o := worldForTest(t, 46, 600)
	e := newEngine(t, g, o, noiseless())
	poison := []topo.ASN{g.ASN(0), g.ASN(1)}
	cfg := Config{Anns: []Announcement{{Link: 0, Prepend: 2, Poison: poison}, {Link: 1, Poison: poison}}}
	out := propagate(t, e, cfg)
	buf := []int{-7}
	abuf := []topo.ASN{7}
	routed := 0
	for i := 0; i < g.NumASes(); i++ {
		dp := out.DataPath(i)
		if n := out.DataPathLen(i); n != len(dp) {
			t.Fatalf("AS%d: DataPathLen %d, DataPath has %d hops", g.ASN(i), n, len(dp))
		}
		buf = out.AppendDataPath(buf[:1], i)
		if buf[0] != -7 || len(buf) != 1+len(dp) {
			t.Fatalf("AS%d: AppendDataPath gave %v for path %v", g.ASN(i), buf, dp)
		}
		for k := range dp {
			if buf[1+k] != dp[k] {
				t.Fatalf("AS%d: AppendDataPath gave %v for path %v", g.ASN(i), buf, dp)
			}
		}
		ap := out.ASPath(i)
		if abuf = out.AppendASPath(abuf[:1], i); abuf[0] != 7 || !slices.Equal(abuf[1:], ap) {
			t.Fatalf("AS%d: AppendASPath gave %v for path %v", g.ASN(i), abuf, ap)
		}
		if dp == nil {
			continue
		}
		routed++
		stuffing := cfg.Anns[out.CatchmentOf(i)].InitialPath(o.ASN)
		tail := ap[len(dp):]
		if len(tail) != len(stuffing) {
			t.Fatalf("AS%d: ASPath tail %v, want %v", g.ASN(i), tail, stuffing)
		}
		for k := range stuffing {
			if tail[k] != stuffing[k] {
				t.Fatalf("AS%d: ASPath tail %v, want %v", g.ASN(i), tail, stuffing)
			}
		}
	}
	if routed == 0 || routed == g.NumASes() {
		t.Fatalf("%d of %d ASes routed; want both routed and unrouted ASes covered", routed, g.NumASes())
	}
	last := g.NumASes() - 1
	if n := testing.AllocsPerRun(10, func() { abuf = out.AppendASPath(abuf[:1], last) }); n != 0 {
		t.Fatalf("AppendASPath into a buffer with room: %.0f allocs, want 0", n)
	}
}
