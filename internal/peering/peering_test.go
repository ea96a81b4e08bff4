package peering

import (
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/topo"
)

func graphForTest(t testing.TB, n int) *topo.Graph {
	t.Helper()
	p := topo.DefaultGenParams(21)
	p.NumASes = n
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func platformForTest(t testing.TB, n int) *Platform {
	t.Helper()
	g := graphForTest(t, n)
	p, err := New(g, Options{EngineParams: bgp.DefaultParams(21)})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewBindsTableI(t *testing.T) {
	p := platformForTest(t, 1000)
	if p.NumLinks() != 7 {
		t.Fatalf("NumLinks = %d, want 7", p.NumLinks())
	}
	names := map[string]bool{}
	provs := map[int]bool{}
	for _, m := range p.Muxes() {
		names[m.Spec.Name] = true
		if provs[m.Provider] {
			t.Fatalf("two muxes share provider index %d", m.Provider)
		}
		provs[m.Provider] = true
		if p.Graph().IsTier1(m.Provider) {
			t.Errorf("mux %s bound to a tier-1 provider", m.Spec.Name)
		}
		if p.Graph().NumCustomers(m.Provider) == 0 {
			t.Errorf("mux %s bound to a non-transit provider", m.Spec.Name)
		}
	}
	for _, spec := range TableI {
		if !names[spec.Name] {
			t.Errorf("mux %s missing", spec.Name)
		}
	}
	ln := p.LinkNames()
	if len(ln) != p.NumLinks() {
		t.Fatalf("LinkNames has %d entries for %d links", len(ln), p.NumLinks())
	}
	for i, m := range p.Muxes() {
		if ln[i] != m.Spec.Name {
			t.Fatalf("LinkNames[%d] = %q, want %q", i, ln[i], m.Spec.Name)
		}
	}
}

func TestNewProvidersSpread(t *testing.T) {
	p := platformForTest(t, 2000)
	// At least some pairs of providers should be >= 2 AS-hops apart so
	// catchments are meaningful.
	g := p.Graph()
	far := 0
	ms := p.Muxes()
	for i := range ms {
		d := g.HopDistances([]int{ms[i].Provider})
		for j := i + 1; j < len(ms); j++ {
			if d[ms[j].Provider] >= 2 {
				far++
			}
		}
	}
	if far == 0 {
		t.Fatal("all providers adjacent; greedy spread failed")
	}
}

func TestDeployAdvancesClock(t *testing.T) {
	p := platformForTest(t, 800)
	cfg := bgp.Config{Anns: []bgp.Announcement{{Link: 0}, {Link: 1}}}
	if _, err := p.Deploy(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Deploy(cfg); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Elapsed(), 140*time.Minute; got != want {
		t.Fatalf("Elapsed = %v, want %v", got, want)
	}
	if p.deployed != 2 {
		t.Fatalf("deployed = %d, want 2", p.deployed)
	}
}

func TestConstraintMaxPoison(t *testing.T) {
	p := platformForTest(t, 800)
	g := p.Graph()
	cfg := bgp.Config{Anns: []bgp.Announcement{{
		Link:   0,
		Poison: []topo.ASN{g.ASN(1), g.ASN(2), g.ASN(3)}, // 3 > limit of 2
	}}}
	if err := p.CheckConstraints(cfg); err == nil {
		t.Fatal("expected max-poison violation")
	}
	if _, err := p.Deploy(cfg); err == nil {
		t.Fatal("Deploy must reject constraint violations")
	}
	if p.deployed != 0 {
		t.Fatal("rejected deploy must not advance state")
	}
}

func TestConstraintMaxPrepend(t *testing.T) {
	p := platformForTest(t, 800)
	cfg := bgp.Config{Anns: []bgp.Announcement{{Link: 0, Prepend: 5}}}
	if err := p.CheckConstraints(cfg); err == nil {
		t.Fatal("expected max-prepend violation")
	}
	ok := bgp.Config{Anns: []bgp.Announcement{{Link: 0, Prepend: 4}}}
	if err := p.CheckConstraints(ok); err != nil {
		t.Fatalf("4 prepends should be allowed: %v", err)
	}
}

func TestDeployPropagates(t *testing.T) {
	p := platformForTest(t, 1000)
	anns := make([]bgp.Announcement, p.NumLinks())
	for i := range anns {
		anns[i] = bgp.Announcement{Link: bgp.LinkID(i)}
	}
	out, err := p.Deploy(bgp.Config{Anns: anns})
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for i := range p.Graph().NumASes() {
		if out.HasRoute(i) {
			routed++
		}
	}
	if routed < p.Graph().NumASes()*9/10 {
		t.Fatalf("only %d of %d ASes routed", routed, p.Graph().NumASes())
	}
}

func TestProviderLinks(t *testing.T) {
	p := platformForTest(t, 800)
	links := p.ProviderLinks()
	if len(links) != p.Graph().NumASes() {
		t.Fatalf("table has %d entries, want one per AS (%d)", len(links), p.Graph().NumASes())
	}
	providers := 0
	for as, got := range links {
		want := bgp.NoLink
		for l, m := range p.Muxes() {
			if m.Provider == as {
				want = bgp.LinkID(l)
				break
			}
		}
		if got != want {
			t.Fatalf("ProviderLinks()[%d] = %d, want %d", as, got, want)
		}
		if got != bgp.NoLink {
			providers++
		}
	}
	if providers == 0 {
		t.Fatal("no AS provides a link")
	}
}

func TestProviderNeighbors(t *testing.T) {
	p := platformForTest(t, 800)
	ns := p.ProviderNeighbors()
	if len(ns) != p.NumLinks() {
		t.Fatalf("got %d entries, want %d", len(ns), p.NumLinks())
	}
	total := 0
	for l, list := range ns {
		prov := p.Muxes()[l].Provider
		for _, idx := range list {
			if _, ok := p.Graph().Rel(prov, idx); !ok {
				t.Fatalf("AS at %d is not a neighbor of provider of link %d", idx, l)
			}
		}
		total += len(list)
	}
	if total == 0 {
		t.Fatal("providers have no neighbors")
	}
}

func TestNewCustomMuxes(t *testing.T) {
	g := graphForTest(t, 800)
	specs := []MuxSpec{{Name: "X", ProviderName: "XP", ProviderASN: 1}, {Name: "Y", ProviderName: "YP", ProviderASN: 2}}
	p, err := New(g, Options{Muxes: specs, EngineParams: bgp.DefaultParams(1)})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d, want 2", p.NumLinks())
	}
}

func TestNewErrors(t *testing.T) {
	g := graphForTest(t, 800)
	if _, err := New(g, Options{Muxes: []MuxSpec{}}); err == nil {
		t.Fatal("expected error for zero muxes")
	}
	// Tiny graph without enough transit providers.
	b := topo.NewBuilder()
	if err := b.AddP2C(1, 2); err != nil {
		t.Fatal(err)
	}
	tiny := b.Freeze()
	if _, err := New(tiny, Options{}); err == nil {
		t.Fatal("expected error for too-small topology")
	}
}

func TestDefaultConstraints(t *testing.T) {
	c := DefaultConstraints()
	if c.MaxPoison != 2 || c.MaxPrepend != 4 || c.ConfigDuration != 70*time.Minute {
		t.Fatalf("unexpected defaults %+v", c)
	}
}
