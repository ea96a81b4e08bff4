package probe

import (
	"fmt"
	"sync"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/sched"
	"spooftrack/internal/trace"
)

// FaultHook lets the fault-injection substrate lose probes on the way
// out. Probe reports true when the probe (or its answer) is lost.
// *fault.Injector implements this.
type FaultHook interface {
	Probe(link, target int, seq uint64) bool
}

// Config assembles a Prober.
type Config struct {
	// Net delivers probes (required).
	Net Network
	// TargetLinks is the expected ingress link per dense AS index
	// (bgp.NoLink for unroutable ASes). Required; it sizes the
	// inference, selects the probe targets, and labels metrics.
	TargetLinks []bgp.LinkID
	// Targets restricts probing to these dense indices. Nil probes
	// every AS with a link in TargetLinks.
	Targets []int
	// LinkNames label metrics per link; indices missing from it render
	// as "link<N>".
	LinkNames []string
	// Budget caps targets visited per round; successive rounds rotate
	// fairly through the rest (sched.RotationWindow). 0 visits all.
	Budget int
	// PerKind is how many probes of each kind a visit sends (default 3).
	PerKind int
	// HopTolerance is the accepted deviation from the control hop
	// baseline before an answer is discarded as off-path (default 2).
	HopTolerance int
	// Quarantined, when non-nil, skips targets whose ingress link the
	// health breaker currently holds (peering.LinkHealth.IsQuarantined).
	Quarantined func(bgp.LinkID) bool
	// Fault, when non-nil, is consulted per probe; lost probes still
	// count as sent (that is what keeps confidences honest).
	Fault FaultHook
	// Tracer records per-round spans when non-nil.
	Tracer *trace.Tracer
}

// Prober schedules spoofed-source probe rounds against the network and
// feeds an SAVInference. Round is serialized internally, so a scan loop
// and HTTP status readers may run concurrently.
type Prober struct {
	cfg     Config
	targets []int

	mu    sync.Mutex
	inf   *SAVInference
	round uint64
	seq   uint64
	tally struct {
		sent, lost, answered, discarded, skipped int64
	}

	sentVec    *metrics.CounterVec
	lostVec    *metrics.CounterVec
	verdictVec *metrics.CounterVec
	scanHist   *metrics.Histogram
}

// RoundReport summarizes one probe round.
type RoundReport struct {
	// Round is the completed round's number (counting from 1).
	Round uint64 `json:"round"`
	// Visited and Skipped partition the round's target window.
	Visited int `json:"visited"`
	Skipped int `json:"skipped"`
	// Sent/Lost/Answered/Discarded count this round's probes.
	Sent      int `json:"sent"`
	Lost      int `json:"lost"`
	Answered  int `json:"answered"`
	Discarded int `json:"discarded"`
	// Duration is wall-clock scan time.
	Duration time.Duration `json:"duration"`
}

// NewProber validates the config and builds a prober.
func NewProber(cfg Config) (*Prober, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("probe: Config.Net is required")
	}
	if len(cfg.TargetLinks) == 0 {
		return nil, fmt.Errorf("probe: Config.TargetLinks is required")
	}
	if cfg.PerKind <= 0 {
		cfg.PerKind = 3
	}
	if cfg.HopTolerance <= 0 {
		cfg.HopTolerance = 2
	}
	targets := cfg.Targets
	if targets == nil {
		for as, l := range cfg.TargetLinks {
			if l != bgp.NoLink {
				targets = append(targets, as)
			}
		}
	} else {
		for _, as := range targets {
			if as < 0 || as >= len(cfg.TargetLinks) {
				return nil, fmt.Errorf("probe: target %d outside the %d-AS link vector", as, len(cfg.TargetLinks))
			}
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("probe: no routable targets")
	}
	return &Prober{
		cfg:     cfg,
		targets: targets,
		inf:     NewSAVInference(len(cfg.TargetLinks)),
	}, nil
}

// Instrument registers the prober's metrics:
//
//	probe_sent_total{link}         probes emitted per ingress link
//	probe_lost_total{link}         probes lost in flight per link
//	probe_sav_verdicts_total{verdict}  outbound verdicts emitted per scan
//	probe_scan_seconds             scan-duration histogram
//	probe_coverage                 fraction of targets with a control answer
func (p *Prober) Instrument(reg *metrics.Registry) {
	p.sentVec = reg.CounterVec("probe_sent_total", "link")
	p.lostVec = reg.CounterVec("probe_lost_total", "link")
	p.verdictVec = reg.CounterVec("probe_sav_verdicts_total", "verdict")
	p.scanHist = reg.Histogram("probe_scan_seconds",
		0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 30)
	reg.GaugeFunc("probe_coverage", p.Coverage)
}

// linkName renders a link for metric labels.
func (p *Prober) linkName(l bgp.LinkID) string {
	if int(l) >= 0 && int(l) < len(p.cfg.LinkNames) {
		return p.cfg.LinkNames[l]
	}
	return fmt.Sprintf("link%d", int(l))
}

// NumTargets returns the prober's eligible target count.
func (p *Prober) NumTargets() int { return len(p.targets) }

// Round runs one budget-bounded scan round: rotate to this round's
// target window, probe each non-quarantined target with PerKind probes
// of every kind, and fold answers into the SAV inference.
func (p *Prober) Round(parent *trace.Span) RoundReport {
	p.mu.Lock()
	defer p.mu.Unlock()

	sp := trace.StartChild(parent, "probe.round")
	if sp == nil && p.cfg.Tracer != nil {
		sp = p.cfg.Tracer.Start("probe.round")
	}
	start := time.Now()
	rep := RoundReport{Round: p.round + 1}

	for _, idx := range sched.RotationWindow(len(p.targets), p.cfg.Budget, p.round) {
		target := p.targets[idx]
		link := p.cfg.TargetLinks[target]
		if p.cfg.Quarantined != nil && link != bgp.NoLink && p.cfg.Quarantined(link) {
			rep.Skipped++
			continue
		}
		rep.Visited++
		p.visit(target, link, &rep)
	}
	p.round++
	rep.Duration = time.Since(start)

	p.tally.sent += int64(rep.Sent)
	p.tally.lost += int64(rep.Lost)
	p.tally.answered += int64(rep.Answered)
	p.tally.discarded += int64(rep.Discarded)
	p.tally.skipped += int64(rep.Skipped)
	if p.scanHist != nil {
		p.scanHist.Observe(rep.Duration.Seconds())
	}
	p.emitVerdictsLocked(rep)

	sp.Count("visited", int64(rep.Visited))
	sp.Count("sent", int64(rep.Sent))
	sp.Count("lost", int64(rep.Lost))
	sp.Count("answered", int64(rep.Answered))
	sp.Count("discarded", int64(rep.Discarded))
	sp.Set(trace.Int("round", int64(rep.Round)))
	sp.End()
	return rep
}

// visit sends one target's probes for this round.
func (p *Prober) visit(target int, link bgp.LinkID, rep *RoundReport) {
	name := p.linkName(link)
	// Controls first: they set the hop baseline spoofed answers are
	// sanity-checked against.
	for _, kind := range []Kind{KindControl, KindInbound, KindOutbound} {
		for i := 0; i < p.cfg.PerKind; i++ {
			seq := p.seq
			p.seq++
			pr := Probe{Kind: kind, Target: target, Seq: seq}
			// An inbound probe's forged source stays zero: the simulated
			// network keys filtering off the probe kind.
			if kind == KindOutbound {
				pr.SpoofedSrc = CollectorAddr
				payload, err := amp.BuildDNSQuery(uint16(seq), "probe.invalid")
				if err != nil {
					continue
				}
				pr.Payload = payload
			}
			p.inf.RecordSent(target, kind)
			rep.Sent++
			if p.sentVec != nil {
				p.sentVec.With(name).Inc()
			}
			if p.cfg.Fault != nil && p.cfg.Fault.Probe(int(link), target, seq) {
				rep.Lost++
				if p.lostVec != nil {
					p.lostVec.With(name).Inc()
				}
				continue
			}
			resp := p.cfg.Net.Send(pr)
			if !resp.Answered {
				continue
			}
			if p.inf.RecordAnswer(target, kind, resp, p.cfg.HopTolerance) {
				rep.Answered++
			} else {
				rep.Discarded++
			}
		}
	}
}

// emitVerdictsLocked counts each probed target's current outbound
// verdict into the verdict counter — one observation per target per
// round, so the counter's rate tracks scan throughput and its label
// split tracks the verdict mix.
func (p *Prober) emitVerdictsLocked(rep RoundReport) {
	if p.verdictVec == nil {
		return
	}
	counts := map[SAVState]int64{}
	for _, idx := range sched.RotationWindow(len(p.targets), p.cfg.Budget, rep.Round-1) {
		target := p.targets[idx]
		if !p.inf.Probed(target) {
			continue
		}
		counts[p.inf.Report(target).Outbound]++
	}
	for st, n := range counts {
		p.verdictVec.With(st.String()).Add(n)
	}
}

// Coverage returns the fraction of eligible targets with at least one
// answered control probe — the probe-coverage SLO's value.
func (p *Prober) Coverage() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.targets) == 0 {
		return 0
	}
	covered := 0
	for _, t := range p.targets {
		if p.inf.Covered(t) {
			covered++
		}
	}
	return float64(covered) / float64(len(p.targets))
}

// Status is the /probe endpoint's payload.
type Status struct {
	Rounds    uint64  `json:"rounds"`
	Targets   int     `json:"targets"`
	Coverage  float64 `json:"coverage"`
	Sent      int64   `json:"sent"`
	Lost      int64   `json:"lost"`
	Answered  int64   `json:"answered"`
	Discarded int64   `json:"discarded"`
	Skipped   int64   `json:"skipped"`
	// Inbound/Outbound count probed ASes by current verdict name.
	Inbound  map[string]int `json:"inbound"`
	Outbound map[string]int `json:"outbound"`
	// LowConfidence counts probed ASes whose outbound verdict sits below
	// the high-confidence threshold — the honest-degradation signal.
	LowConfidence int     `json:"low_confidence"`
	Threshold     float64 `json:"confidence_threshold"`
}

// HighConfidence is the default confidence floor for promoting a probe
// verdict into attribution evidence.
const HighConfidence = 0.95

// Status summarizes the prober for operators.
func (p *Prober) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Status{
		Rounds:    p.round,
		Targets:   len(p.targets),
		Sent:      p.tally.sent,
		Lost:      p.tally.lost,
		Answered:  p.tally.answered,
		Discarded: p.tally.discarded,
		Skipped:   p.tally.skipped,
		Inbound:   map[string]int{},
		Outbound:  map[string]int{},
		Threshold: HighConfidence,
	}
	covered := 0
	for _, t := range p.targets {
		if p.inf.Covered(t) {
			covered++
		}
		if !p.inf.Probed(t) {
			continue
		}
		r := p.inf.Report(t)
		st.Inbound[r.Inbound.String()]++
		st.Outbound[r.Outbound.String()]++
		if r.OutConfidence < HighConfidence {
			st.LowConfidence++
		}
	}
	if len(p.targets) > 0 {
		st.Coverage = float64(covered) / float64(len(p.targets))
	}
	return st
}

// Inference runs fn with the prober's inference under the lock — the
// safe way to snapshot reports or build evidence mid-scan.
func (p *Prober) Inference(fn func(*SAVInference)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn(p.inf)
}

// Reports returns a copy of every probed AS's report.
func (p *Prober) Reports() []ASReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inf.Reports()
}
