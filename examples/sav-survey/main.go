// SAV survey: actively probe every routable AS in a synthetic topology
// and infer, per AS and per direction, whether it validates source
// addresses — the probing side of "Tracking Down Sources of Spoofed IP
// Packets". Control probes establish deliverability and a hop-count
// baseline, inbound probes forge a source inside the target, and
// outbound probes bounce an amplification request off a reflector so
// the spoofed-source reply has to escape the target's egress filtering.
// Output is deterministic for the fixed seed.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"

	"spooftrack/internal/bgp"
	"spooftrack/internal/peering"
	"spooftrack/internal/probe"
	"spooftrack/internal/topo"
)

const seed = 11

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sav-survey:", err)
		os.Exit(1)
	}
}

// run surveys every routable AS and fails if any verdict contradicts the
// seeded ground truth at high confidence.
func run(ctx context.Context, w io.Writer) error {
	p := topo.DefaultGenParams(seed)
	p.NumASes = 600
	g, err := topo.Generate(p)
	if err != nil {
		return err
	}
	plat, err := peering.New(g, peering.Options{EngineParams: bgp.DefaultParams(seed)})
	if err != nil {
		return err
	}
	anns := make([]bgp.Announcement, plat.NumLinks())
	for i := range anns {
		anns[i] = bgp.Announcement{Link: bgp.LinkID(i)}
	}
	out, err := plat.Propagate(bgp.Config{Anns: anns})
	if err != nil {
		return err
	}

	// Seeded ground truth: 40% of ASes filter inbound, 50% outbound.
	truth := probe.RandomGroundTruth(g.NumASes(), 0.4, 0.5, seed)
	net, err := probe.NewSimNet(out, truth, 0, seed)
	if err != nil {
		return err
	}
	pr, err := probe.NewProber(probe.Config{
		Net:         net,
		TargetLinks: out.CatchmentVector(),
		LinkNames:   plat.LinkNames(),
		Budget:      200,
		PerKind:     4,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "surveying %d routable ASes, 200 per round...\n", pr.NumTargets())
	for pr.Coverage() < 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		rep := pr.Round(nil)
		fmt.Fprintf(w, "round %d: visited %d, sent %d, answered %d (coverage %.0f%%)\n",
			rep.Round, rep.Visited, rep.Sent, rep.Answered, 100*pr.Coverage())
	}

	fmt.Fprintln(w, "\nper-AS SAV report (first 20 of the survey):")
	fmt.Fprintln(w, "  AS   link        inbound            outbound")
	reports := pr.Reports()
	for _, r := range reports[:20] {
		fmt.Fprintf(w, "%4d   %-10s  %-8s (%.3f)   %-8s (%.3f)\n",
			r.AS, plat.LinkNames()[r.Link], r.Inbound, r.InConfidence, r.Outbound, r.OutConfidence)
	}

	// Tally verdicts against the seeded ground truth.
	verdict := func(deployed bool) probe.SAVState {
		if deployed {
			return probe.SAVDeployed
		}
		return probe.SAVAbsent
	}
	var inRight, outRight, confident, confidentWrong int
	counts := map[probe.SAVState]int{}
	for _, r := range reports {
		counts[r.Outbound]++
		inOK := r.Inbound == verdict(truth.InboundSAV[r.AS])
		outOK := r.Outbound == verdict(truth.OutboundSAV[r.AS])
		if inOK {
			inRight++
		}
		if outOK {
			outRight++
		}
		if r.OutConfidence >= probe.HighConfidence {
			confident++
		}
		if (!inOK && r.InConfidence >= probe.HighConfidence) || (!outOK && r.OutConfidence >= probe.HighConfidence) {
			confidentWrong++
		}
	}
	fmt.Fprintf(w, "\nsurveyed %d ASes: outbound verdicts %d deployed / %d absent / %d unknown\n",
		len(reports), counts[probe.SAVDeployed], counts[probe.SAVAbsent], counts[probe.SAVUnknown])
	fmt.Fprintf(w, "agreement with ground truth: inbound %d/%d, outbound %d/%d (%d high-confidence)\n",
		inRight, len(reports), outRight, len(reports), confident)
	if confidentWrong > 0 {
		return fmt.Errorf("%d ASes got a verdict that is wrong at high confidence", confidentWrong)
	}

	// The evidence bridge: probe-measured ingress links audited against
	// the propagation-derived catchment vector, and a BCP38 deployment
	// model the survey measured instead of assumed.
	pr.Inference(func(inf *probe.SAVInference) {
		audit := probe.Audit(probe.BuildChannel(inf), out.CatchmentVector())
		fmt.Fprintf(w, "channel audit vs catchments: %d agree, %d conflict, %d probe-only, %d catchment-only\n",
			audit.Agree, audit.Conflict, audit.ProbeOnly, audit.CatchmentOnly)
		sources := make([]int, 0, len(reports))
		for _, r := range reports {
			sources = append(sources, r.AS)
		}
		model := probe.InferredBCP38(inf, sources)
		deployed := 0
		for k := range sources {
			if model.Deployed(k) {
				deployed++
			}
		}
		fmt.Fprintf(w, "inferred BCP38 model: %d/%d surveyed sources egress-filter spoofed packets\n",
			deployed, len(sources))
	})
	return nil
}
