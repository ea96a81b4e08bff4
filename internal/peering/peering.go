// Package peering models the origin-AS side of the experiment: a
// PEERING-like research platform (Schlinker et al., CoNEXT 2019) with
// multiple points-of-presence, each connected to one transit provider
// (the paper's Table I), an announcement controller enforcing the
// platform's operational constraints, and a simulated clock accounting
// for BGP convergence and catchment measurement delay (70 minutes per
// configuration in the paper, §IV-b).
package peering

import (
	"fmt"
	"sort"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
	"spooftrack/internal/trace"
)

// PEERINGASN is the platform's AS number, used as the origin ASN and as
// the sentinel wrapped around poisoned ASes (§IV-e).
const PEERINGASN topo.ASN = 47065

// MuxSpec names one PEERING point-of-presence and its transit provider,
// as in the paper's Table I.
type MuxSpec struct {
	Name         string
	ProviderName string
	ProviderASN  topo.ASN
}

// TableI lists the seven PoPs and providers the paper's experiments used.
var TableI = []MuxSpec{
	{Name: "AMS-IX", ProviderName: "Bit BV", ProviderASN: 12859},
	{Name: "GRNet", ProviderName: "GRNet", ProviderASN: 5408},
	{Name: "USC/ISI", ProviderName: "Los Nettos", ProviderASN: 226},
	{Name: "NEU", ProviderName: "Northeastern University", ProviderASN: 156},
	{Name: "Seattle-IX", ProviderName: "RGnet", ProviderASN: 3130},
	{Name: "UFMG", ProviderName: "RNP", ProviderASN: 1916},
	{Name: "UW", ProviderName: "Pacific Northwest GigaPoP", ProviderASN: 101},
}

// Mux is one deployed point-of-presence: a Table-I label bound to a
// provider AS in the topology.
type Mux struct {
	Spec MuxSpec
	// Provider is the dense topo index of the transit provider this mux
	// announces through.
	Provider int
}

// Constraints are the platform's per-announcement operational limits.
type Constraints struct {
	// MaxPoison is the maximum number of ASes poisoned on a single
	// announcement (PEERING conservatively allows 2, §IV-e).
	MaxPoison int
	// MaxPrepend bounds AS-path prepending per announcement.
	MaxPrepend int
	// ConfigDuration is how long each configuration stays active to
	// cover convergence plus three rounds of traceroutes (70 min, §IV-b).
	ConfigDuration time.Duration
}

// DefaultConstraints returns the limits the paper operated under.
func DefaultConstraints() Constraints {
	return Constraints{
		MaxPoison:      2,
		MaxPrepend:     4,
		ConfigDuration: 70 * time.Minute,
	}
}

// Platform is the origin AS with its muxes, constraint checking, and the
// simulated experiment clock. It wraps a bgp.Engine: Deploy validates a
// configuration, charges clock time, and propagates it.
//
// Propagation is split from bookkeeping so campaigns can fan
// configurations out across CPUs: Propagate is safe for concurrent use
// (and consults the outcome cache), while Record — which advances the
// simulated clock and the convergence sampler, both ordered state — must
// be called sequentially in deployment order.
type Platform struct {
	muxes       []Mux
	constraints Constraints
	engine      *bgp.Engine
	cache       *bgp.OutcomeCache

	// conv models per-deployment BGP convergence delay; convRNG drives
	// its sampling. Both belong to the sequential Record path.
	conv    ConvergenceModel
	convRNG *stats.RNG

	elapsed   time.Duration
	converged time.Duration
	deployed  int

	// hook, when set, injects deployment faults (latency, link flaps,
	// failed attempts); health is the per-link breaker the hook's flap
	// and failure reports feed. The hot path pays nothing when no hook
	// is installed.
	hook   FaultHook
	health *LinkHealth
}

// FaultHook injects deployment faults. Deploy is called once per
// deployment attempt with the configuration's canonical key; it returns
// the links that flapped during the attempt (reported to the link-health
// breaker even on success) and a non-nil error when the attempt fails.
// internal/fault.Injector implements it.
type FaultHook interface {
	Deploy(cfgKey string, attempt int) ([]bgp.LinkID, error)
}

// Options configures platform construction.
type Options struct {
	// Muxes to deploy; defaults to TableI.
	Muxes []MuxSpec
	// EngineParams configures the routing engine realism knobs.
	EngineParams bgp.Params
}

// New builds a platform over the topology, binding each mux to a transit
// provider. Providers are chosen deterministically: the highest-customer-
// degree non-tier-1 transit ASes, greedily spread so no two muxes share a
// provider and pairwise AS-hop distance is maximized — mirroring
// PEERING's geographically dispersed PoPs.
func New(g *topo.Graph, opts Options) (*Platform, error) {
	specs := opts.Muxes
	if specs == nil {
		specs = TableI
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("peering: no muxes requested")
	}
	providers, err := chooseProviders(g, len(specs))
	if err != nil {
		return nil, err
	}
	muxes := make([]Mux, len(specs))
	links := make([]bgp.Link, len(specs))
	for i, spec := range specs {
		muxes[i] = Mux{Spec: spec, Provider: providers[i]}
		links[i] = bgp.Link{Name: spec.Name, Provider: providers[i]}
	}
	engine, err := bgp.NewEngine(g, bgp.Origin{ASN: PEERINGASN, Links: links}, opts.EngineParams)
	if err != nil {
		return nil, err
	}
	p := &Platform{
		muxes:       muxes,
		constraints: DefaultConstraints(),
		engine:      engine,
		conv:        DefaultConvergenceModel(),
		convRNG:     stats.NewRNG(opts.EngineParams.Seed ^ 0xc09e4ce5ead),
		cache:       bgp.NewOutcomeCache(),
		health:      NewLinkHealth(len(muxes), 0, 0),
	}
	return p, nil
}

// chooseProviders picks n distinct non-tier-1 transit ASes: the 4n
// largest by customer count, then a greedy max-min-distance subset.
func chooseProviders(g *topo.Graph, n int) ([]int, error) {
	transit := g.TransitASes()
	var cands []int
	for _, i := range transit {
		if !g.IsTier1(i) {
			cands = append(cands, i)
		}
	}
	if len(cands) < n {
		return nil, fmt.Errorf("peering: topology has only %d candidate providers, need %d", len(cands), n)
	}
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := g.NumCustomers(cands[a]), g.NumCustomers(cands[b])
		if ca != cb {
			return ca > cb
		}
		return cands[a] < cands[b]
	})
	pool := cands
	if len(pool) > 4*n {
		pool = pool[:4*n]
	}
	// Greedy farthest-point selection over AS-hop distance.
	chosen := []int{pool[0]}
	dist := g.HopDistances([]int{pool[0]})
	for len(chosen) < n {
		best, bestD := -1, -1
		for _, c := range pool {
			if containsInt(chosen, c) {
				continue
			}
			if dist[c] > bestD {
				best, bestD = c, dist[c]
			}
		}
		chosen = append(chosen, best)
		nd := g.HopDistances([]int{best})
		for i := range dist {
			if nd[i] < dist[i] {
				dist[i] = nd[i]
			}
		}
	}
	return chosen, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Engine exposes the underlying routing engine (read-only use).
func (p *Platform) Engine() *bgp.Engine { return p.engine }

// Constraints returns the platform's operational limits.
func (p *Platform) Constraints() Constraints { return p.constraints }

// Graph returns the topology the platform is attached to.
func (p *Platform) Graph() *topo.Graph { return p.engine.Graph() }

// Muxes returns the deployed muxes.
func (p *Platform) Muxes() []Mux { return p.muxes }

// NumLinks returns the number of peering links (muxes).
func (p *Platform) NumLinks() int { return len(p.muxes) }

// LinkNames returns the mux names indexed by LinkID — stable
// identifiers for metric labels and reports.
func (p *Platform) LinkNames() []string {
	names := make([]string, len(p.muxes))
	for i, m := range p.muxes {
		names[i] = m.Spec.Name
	}
	return names
}

// ProviderLinks returns a table indexed by dense AS index: entry i is
// the peering link whose provider is AS i, bgp.NoLink for an AS that
// provides no link. When two muxes share a provider, the lower link id
// wins. Inference resolves every provider it sees through this table,
// so callers build it once per platform.
func (p *Platform) ProviderLinks() []bgp.LinkID {
	links := make([]bgp.LinkID, p.Graph().NumASes())
	for i := range links {
		links[i] = bgp.NoLink
	}
	for i := len(p.muxes) - 1; i >= 0; i-- {
		links[p.muxes[i].Provider] = bgp.LinkID(i)
	}
	return links
}

// ProviderNeighbors returns, for each mux, the dense indices of the
// provider's neighbors excluding the origin itself — the poisoning
// targets of the paper's third technique (§III-A-c): ASes one hop behind
// a directly connected provider.
func (p *Platform) ProviderNeighbors() map[bgp.LinkID][]int {
	g := p.Graph()
	out := make(map[bgp.LinkID][]int, len(p.muxes))
	for l, m := range p.muxes {
		var ns []int
		for _, nb := range g.Neighbors(m.Provider) {
			ns = append(ns, nb.Idx)
		}
		out[bgp.LinkID(l)] = ns
	}
	return out
}

// CheckConstraints validates a configuration against the platform limits
// without deploying it.
func (p *Platform) CheckConstraints(cfg bgp.Config) error {
	if err := cfg.Validate(p.engine.Origin()); err != nil {
		return err
	}
	for _, a := range cfg.Anns {
		if len(a.Poison) > p.constraints.MaxPoison {
			return fmt.Errorf("peering: announcement on %s poisons %d ASes, platform limit is %d",
				p.muxes[a.Link].Spec.Name, len(a.Poison), p.constraints.MaxPoison)
		}
		if a.Prepend > p.constraints.MaxPrepend {
			return fmt.Errorf("peering: announcement on %s prepends %d times, platform limit is %d",
				p.muxes[a.Link].Spec.Name, a.Prepend, p.constraints.MaxPrepend)
		}
	}
	return nil
}

// Propagate computes the converged routing outcome for the configuration
// without touching the platform's clock. It consults the outcome cache
// and is safe for concurrent use. A caller done with the outcome may
// Release it: a derived one is the caller's alone and feeds the next
// propagation, a cached seed ignores the call (bgp.OutcomeCache).
func (p *Platform) Propagate(cfg bgp.Config) (*bgp.Outcome, error) {
	return p.cache.PropagateTraced(p.engine, cfg, nil)
}

// SetFaultHook installs a deployment fault injector. Call before the
// campaign starts; a nil hook restores the fault-free fast path.
func (p *Platform) SetFaultHook(h FaultHook) { p.hook = h }

// Health returns the per-link breaker tracking deployment health. It is
// always non-nil; without a fault hook it simply never trips.
func (p *Platform) Health() *LinkHealth { return p.health }

// PropagateAttempt runs one deployment attempt of the configuration:
// the fault hook (if any) first injects convergence latency, link
// flaps, and attempt failures — flaps and failures are charged to the
// link-health breaker, clean announcements credited — and then the
// outcome is computed as in Propagate, its spans nested under parent
// (bypassing the outcome cache when noCache is set). Safe for concurrent
// use; the breaker never influences the returned outcome, so campaign
// results stay deterministic under any fault profile.
func (p *Platform) PropagateAttempt(cfg bgp.Config, attempt int, noCache bool, parent *trace.Span) (*bgp.Outcome, error) {
	if p.hook != nil {
		flapped, err := p.hook.Deploy(cfg.Key(), attempt)
		for _, l := range flapped {
			p.health.ReportFailure(l)
		}
		for _, a := range cfg.Anns {
			if containsLink(flapped, a.Link) {
				continue
			}
			if err != nil {
				p.health.ReportFailure(a.Link)
			} else {
				p.health.ReportSuccess(a.Link)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if noCache {
		out, err := p.engine.PropagateTraced(cfg, parent)
		if err != nil {
			return nil, err
		}
		return &out, nil
	}
	return p.cache.PropagateTraced(p.engine, cfg, parent)
}

func containsLink(xs []bgp.LinkID, v bgp.LinkID) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Record accounts for one deployment: it advances the simulated clock
// by the configuration duration and samples a convergence delay from
// the platform's model. Callers that propagate concurrently must call
// Record sequentially, in deployment order. It emits a "peering.settle"
// span under parent (nil for none) carrying the sampled convergence
// delay and the configuration slot duration; the convergence sample is
// drawn whether or not tracing is on, so simulated clocks are identical
// across traced and untraced runs.
func (p *Platform) Record(parent *trace.Span) {
	conv := p.conv.Sample(p.convRNG)
	sp := trace.StartChild(parent, "peering.settle")
	p.elapsed += p.constraints.ConfigDuration
	p.converged += conv
	p.deployed++
	if sp != nil {
		sp.Set(
			trace.Float("sim_convergence_s", conv.Seconds()),
			trace.Float("sim_config_duration_s", p.constraints.ConfigDuration.Seconds()),
			trace.Int("deployed", int64(p.deployed)),
		)
		sp.End()
	}
}

// CacheStats returns the outcome cache's cumulative hit and miss counts.
func (p *Platform) CacheStats() (hits, misses uint64) {
	st := p.cache.StatsSnapshot()
	return st.Hits, st.Misses
}

// ConvergenceTotal returns the cumulative sampled convergence delay
// across all recorded deployments.
func (p *Platform) ConvergenceTotal() time.Duration { return p.converged }

// Deploy validates the configuration, advances the simulated clock by the
// configuration duration, and returns the converged routing outcome.
func (p *Platform) Deploy(cfg bgp.Config) (*bgp.Outcome, error) {
	if err := p.CheckConstraints(cfg); err != nil {
		return nil, err
	}
	out, err := p.Propagate(cfg)
	if err != nil {
		return nil, err
	}
	p.Record(nil)
	return out, nil
}

// Elapsed returns the simulated wall-clock time spent deploying
// configurations so far.
func (p *Platform) Elapsed() time.Duration { return p.elapsed }
