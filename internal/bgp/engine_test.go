package bgp

import (
	"testing"

	"spooftrack/internal/topo"
)

// diamond builds the test topology used across these tests:
//
//	t1(1) --- t2(2)     tier-1 peering
//	  |         |
//	 a(3)      b(4)     mid-tier, customers of t1 / t2
//	    \     /
//	    src(5)          stub, customer of both a and b
//
// The origin AS (47065) has link 0 at provider a and link 1 at provider b.
func diamond(t *testing.T) (*topo.Graph, Origin) {
	t.Helper()
	b := topo.NewBuilder()
	b.MarkTier1(1)
	b.MarkTier1(2)
	for _, err := range []error{
		b.AddP2P(1, 2),
		b.AddP2C(1, 3),
		b.AddP2C(2, 4),
		b.AddP2C(3, 5),
		b.AddP2C(4, 5),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	origin := Origin{ASN: 47065, Links: []Link{
		{Name: "L0@a", Provider: g.MustIndex(3)},
		{Name: "L1@b", Provider: g.MustIndex(4)},
	}}
	return g, origin
}

// noiseless returns engine params with all realism knobs off, for exact
// assertions.
func noiseless() Params {
	return Params{Seed: 1, PolicyNoiseFrac: 0, IgnorePoisonFrac: 0, Tier1PoisonFilter: true}
}

func newEngine(t *testing.T, g *topo.Graph, o Origin, p Params) *Engine {
	t.Helper()
	e, err := NewEngine(g, o, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func propagate(t *testing.T, e *Engine, cfg Config) *Outcome {
	t.Helper()
	out, err := e.Propagate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestAnycastBothLinks(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0}, {Link: 1}}})

	// Providers take their direct customer routes.
	if l := out.CatchmentOf(g.MustIndex(3)); l != 0 {
		t.Errorf("a in catchment %d, want 0", l)
	}
	if l := out.CatchmentOf(g.MustIndex(4)); l != 1 {
		t.Errorf("b in catchment %d, want 1", l)
	}
	// Tier-1s hear customer routes from their own sides.
	if l := out.CatchmentOf(g.MustIndex(1)); l != 0 {
		t.Errorf("t1 in catchment %d, want 0", l)
	}
	if l := out.CatchmentOf(g.MustIndex(2)); l != 1 {
		t.Errorf("t2 in catchment %d, want 1", l)
	}
	// Everyone has a route.
	if n := out.NumRouted(); n != g.NumASes() {
		t.Errorf("routed %d of %d ASes", n, g.NumASes())
	}
	// src has two equal provider routes; either is fine, but it must be
	// consistent with its next hop.
	src := g.MustIndex(5)
	nh := out.NextHop(src)
	if nh != g.MustIndex(3) && nh != g.MustIndex(4) {
		t.Fatalf("src next hop %d unexpected", nh)
	}
	wantLink := LinkID(0)
	if nh == g.MustIndex(4) {
		wantLink = 1
	}
	if l := out.CatchmentOf(src); l != wantLink {
		t.Errorf("src catchment %d inconsistent with next hop", l)
	}
}

func TestSingleLinkReachesAll(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0}}})
	for i := 0; i < g.NumASes(); i++ {
		if l := out.CatchmentOf(i); l != 0 {
			t.Errorf("AS%d in catchment %d, want 0", g.ASN(i), l)
		}
	}
	// b's route must be the valley-free one through t2 (its provider),
	// not through its customer src.
	b := g.MustIndex(4)
	if nh := out.NextHop(b); nh != g.MustIndex(2) {
		t.Errorf("b next hop AS%d, want t2", g.ASN(nh))
	}
	if got := out.PathLen(b); got != 4 { // b t2 t1 a o
		t.Errorf("b path length %d, want 4", got)
	}
}

func TestValleyFreeStubDoesNotTransit(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0}}})
	// src's provider-learned route must not be exported to b, so b's
	// path cannot contain src.
	for _, hop := range out.DataPath(g.MustIndex(4)) {
		if hop == g.MustIndex(5) {
			t.Fatal("b's route transits stub src: valley")
		}
	}
}

func TestLocalPrefBeatsPathLength(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	// Heavy prepending on link 0: ties break away from it, but customer
	// routes (higher LocalPref) must stay on it regardless of length.
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0, Prepend: 4}, {Link: 1}}})
	// src had two equal provider routes; prepending pushes it to b.
	if l := out.CatchmentOf(g.MustIndex(5)); l != 1 {
		t.Errorf("src in catchment %d, want 1 after prepending link 0", l)
	}
	// t1 keeps its customer route via a (LocalPref) even though the peer
	// route via t2 is much shorter.
	if l := out.CatchmentOf(g.MustIndex(1)); l != 0 {
		t.Errorf("t1 in catchment %d, want 0: prepending must not override LocalPref", l)
	}
	if got := out.PathLen(g.MustIndex(1)); got != 6 { // a o o o o o (self excluded)
		t.Errorf("t1 path length %d, want 6", got)
	}
}

func TestPrependFlipsTies(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	src := g.MustIndex(5)
	// Prepend link 0 -> src goes to 1; prepend link 1 -> src goes to 0.
	out0 := propagate(t, e, Config{Anns: []Announcement{{Link: 0, Prepend: 4}, {Link: 1}}})
	out1 := propagate(t, e, Config{Anns: []Announcement{{Link: 0}, {Link: 1, Prepend: 4}}})
	if l := out0.CatchmentOf(src); l != 1 {
		t.Errorf("prepending link 0: src catchment %d, want 1", l)
	}
	if l := out1.CatchmentOf(src); l != 0 {
		t.Errorf("prepending link 1: src catchment %d, want 0", l)
	}
}

func TestPoisonDisconnectsTarget(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	// Only link 0 announced, poisoning t1: t1 rejects the announcement,
	// and everything behind t1 (t2, b) loses its route.
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0, Poison: []topo.ASN{1}}}})
	for _, asn := range []topo.ASN{1, 2, 4} {
		if out.HasRoute(g.MustIndex(asn)) {
			t.Errorf("AS%d should have no route when t1 is poisoned", asn)
		}
	}
	for _, asn := range []topo.ASN{3, 5} {
		if l := out.CatchmentOf(g.MustIndex(asn)); l != 0 {
			t.Errorf("AS%d in catchment %d, want 0", asn, l)
		}
	}
}

func TestPoisonMovesCatchment(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	// Both links announced; poisoning t1 on link 0 forces t1 (and its
	// dependents) onto link 1's announcement.
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0, Poison: []topo.ASN{1}}, {Link: 1}}})
	if l := out.CatchmentOf(g.MustIndex(1)); l != 1 {
		t.Errorf("poisoned t1 in catchment %d, want 1", l)
	}
	// a still uses its direct route.
	if l := out.CatchmentOf(g.MustIndex(3)); l != 0 {
		t.Errorf("a in catchment %d, want 0", l)
	}
}

func TestPoisonIgnoredWhenLoopPreventionDisabled(t *testing.T) {
	g, o := diamond(t)
	p := noiseless()
	p.IgnorePoisonFrac = 1.0 // every AS ignores poisoning
	e := newEngine(t, g, o, p)
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0, Poison: []topo.ASN{1}}}})
	if !out.HasRoute(g.MustIndex(1)) {
		t.Fatal("t1 ignores poisoning but lost its route")
	}
	if l := out.CatchmentOf(g.MustIndex(1)); l != 0 {
		t.Errorf("t1 in catchment %d, want 0", l)
	}
}

func TestTier1PoisonFilter(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	// Announce on link 0 poisoning t2. t1 is tier-1 and receives the
	// route from customer a with a tier-1 (t2) in the path: the
	// route-leak filter drops it, so t1, t2 and b all lose the prefix.
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0, Poison: []topo.ASN{2}}}})
	for _, asn := range []topo.ASN{1, 2, 4} {
		if out.HasRoute(g.MustIndex(asn)) {
			t.Errorf("AS%d should have no route (tier-1 filter)", asn)
		}
	}

	// With the filter disabled, t1 accepts and only t2 (the poisoned AS)
	// rejects; t2 has no alternative, and b behind it loses out too.
	p := noiseless()
	p.Tier1PoisonFilter = false
	e2 := newEngine(t, g, o, p)
	out2 := propagate(t, e2, Config{Anns: []Announcement{{Link: 0, Poison: []topo.ASN{2}}}})
	if !out2.HasRoute(g.MustIndex(1)) {
		t.Error("t1 should keep the route with the filter disabled")
	}
	if out2.HasRoute(g.MustIndex(2)) {
		t.Error("poisoned t2 should reject the route")
	}
}

func TestASPathContents(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0, Prepend: 1, Poison: []topo.ASN{64500}}}})
	// b's control-plane path: b t2 t1 a | o o | 64500 o
	got := out.ASPath(g.MustIndex(4))
	want := []topo.ASN{4, 2, 1, 3, 47065, 47065, 64500, 47065}
	if len(got) != len(want) {
		t.Fatalf("ASPath = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ASPath = %v, want %v", got, want)
		}
	}
	// Data path has no stuffing: b t2 t1 a.
	dp := out.DataPath(g.MustIndex(4))
	wantDP := []int{g.MustIndex(4), g.MustIndex(2), g.MustIndex(1), g.MustIndex(3)}
	if len(dp) != len(wantDP) {
		t.Fatalf("DataPath = %v, want %v", dp, wantDP)
	}
	for i := range wantDP {
		if dp[i] != wantDP[i] {
			t.Fatalf("DataPath = %v, want %v", dp, wantDP)
		}
	}
}

func TestNoRouteAccessors(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0, Poison: []topo.ASN{1}}}})
	t1 := g.MustIndex(1)
	if out.ASPath(t1) != nil || out.DataPath(t1) != nil {
		t.Error("paths of unrouted AS should be nil")
	}
	if out.PathLen(t1) != -1 {
		t.Error("PathLen of unrouted AS should be -1")
	}
	if out.ClassOf(t1) != RouteNone {
		t.Error("ClassOf unrouted AS should be RouteNone")
	}
	if out.NextHop(t1) != -1 {
		t.Error("NextHop of unrouted AS should be -1")
	}
}

func TestRouteClasses(t *testing.T) {
	g, o := diamond(t)
	e := newEngine(t, g, o, noiseless())
	out := propagate(t, e, Config{Anns: []Announcement{{Link: 0}}})
	cases := map[topo.ASN]RouteClass{
		3: RouteCustomer, // direct origin announcement
		1: RouteCustomer, // learned from customer a
		2: RoutePeer,     // learned from peer t1
		4: RouteProvider, // learned from provider t2
		5: RouteProvider, // learned from provider a
	}
	for asn, want := range cases {
		if got := out.ClassOf(g.MustIndex(asn)); got != want {
			t.Errorf("AS%d class %v, want %v", asn, got, want)
		}
	}
}

func TestPinnedPolicyOverride(t *testing.T) {
	// Build engines with full policy noise until we find one where src
	// pins provider b; then verify src routes via b even when the a-side
	// route is shorter.
	g, o := diamond(t)
	src, bIdx := g.MustIndex(5), g.MustIndex(4)
	for seed := uint64(0); seed < 64; seed++ {
		p := Params{Seed: seed, PolicyNoiseFrac: 1.0}
		e := newEngine(t, g, o, p)
		if e.PinnedNeighbor(src) != bIdx {
			continue
		}
		// Link 1 prepended: without pinning src would prefer the shorter
		// route via a; the pin forces src's next hop to b regardless.
		out := propagate(t, e, Config{Anns: []Announcement{{Link: 0}, {Link: 1, Prepend: 4}}})
		if nh := out.NextHop(src); nh != bIdx {
			t.Fatalf("pinned src has next hop %d, want b", nh)
		}
		return
	}
	t.Fatal("no seed pinned src to b; widen the search")
}

func TestConfigValidate(t *testing.T) {
	_, o := diamond(t)
	cases := []Config{
		{},                                 // no announcements
		{Anns: []Announcement{{Link: 5}}},  // out of range
		{Anns: []Announcement{{Link: -1}}}, // negative
		{Anns: []Announcement{{Link: 0}, {Link: 0}}},                 // duplicate
		{Anns: []Announcement{{Link: 0, Prepend: -1}}},               // bad prepend
		{Anns: []Announcement{{Link: 0, Poison: []topo.ASN{47065}}}}, // poison self
	}
	for i, cfg := range cases {
		if err := cfg.Validate(o); err == nil {
			t.Errorf("case %d (%v): expected validation error", i, cfg)
		}
	}
	good := Config{Anns: []Announcement{{Link: 0, Prepend: 4, Poison: []topo.ASN{9}}}}
	if err := good.Validate(o); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewEngineValidation(t *testing.T) {
	g, o := diamond(t)
	if _, err := NewEngine(g, Origin{ASN: 47065}, noiseless()); err == nil {
		t.Error("expected error for origin without links")
	}
	bad := o
	bad.ASN = 1 // collides with t1
	if _, err := NewEngine(g, bad, noiseless()); err == nil {
		t.Error("expected error for colliding origin ASN")
	}
	bad2 := Origin{ASN: 47065, Links: []Link{{Provider: 99}}}
	if _, err := NewEngine(g, bad2, noiseless()); err == nil {
		t.Error("expected error for out-of-range provider")
	}
	// A link id must fit a LinkID: one link too many fails, it does not
	// wrap.
	for _, tc := range []struct {
		links int
		ok    bool
	}{{MaxLinks, true}, {MaxLinks + 1, false}, {256, false}} {
		many := Origin{ASN: 47065, Links: make([]Link, tc.links)}
		for i := range many.Links {
			many.Links[i] = o.Links[0]
		}
		if _, err := NewEngine(g, many, noiseless()); (err == nil) != tc.ok {
			t.Errorf("%d links: err = %v, want ok=%v", tc.links, err, tc.ok)
		}
	}
}

func TestAnnouncementHelpers(t *testing.T) {
	a := Announcement{Link: 0, Prepend: 2, Poison: []topo.ASN{7, 8}}
	if a.PathLen() != 7 {
		t.Fatalf("PathLen = %d, want 7", a.PathLen())
	}
	path := a.InitialPath(100)
	want := []topo.ASN{100, 100, 100, 7, 100, 8, 100}
	if len(path) != len(want) {
		t.Fatalf("InitialPath = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("InitialPath = %v, want %v", path, want)
		}
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{Anns: []Announcement{
		{Link: 0, Prepend: 4},
		{Link: 2, Poison: []topo.ASN{64512}},
	}}
	s := cfg.String()
	if s == "" || s == "⟨A={}; P={}; Q={}⟩" {
		t.Fatalf("unhelpful String: %q", s)
	}
}
