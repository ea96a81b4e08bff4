package main

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/shard"
	"spooftrack/internal/stream"
)

// The three localize workloads run the live loop — spoofed traffic in,
// rounds folded, configurations deployed — until the pipeline reports
// the attackers' cluster cannot be narrowed further. They share one
// world and differ in which part of the program carries the load.

const (
	// localizeDeadline bounds one attack; an attack that has not
	// converged by then is a failed op.
	localizeDeadline = 20 * time.Second
	// pipelineTick is the pipeline's flush and evaluation cadence: short,
	// so the wall time of a round is the work in it and not a timer.
	pipelineTick = time.Millisecond
)

// attackResult is what one attack left behind, for the op's check.
type attackResult struct {
	want       []int // true source positions
	candidates []int // final candidate set
	deployed   []int // configurations deployed, initial one first
	sent       int64 // events the harness delivered to the program
	accounted  int64 // events the program accounted
	resent     int64 // loopback: packets sent again for ones that went missing
	dropped    int64
	settled    int64
	// rounds are the per-link packet counts of every round the harness
	// sent, for refolding through a bare stream.Evaluator.
	rounds [][]int64
}

// localizeResult is one op's outcome.
type localizeResult struct {
	attacks []attackResult
}

func (r *localizeResult) counts() (deploys int, events int64, sum checksum) {
	sum = newChecksum()
	for _, a := range r.attacks {
		deploys += len(a.deployed)
		events += a.accounted
		for _, c := range a.deployed {
			sum.add(c)
		}
	}
	return deploys, events, sum
}

// checkAttack verifies one attack: the true sources survived, every
// event sent was accounted, none was shed or left out of its round, and
// the deployed sequence is what a bare evaluator deploys on the same
// rounds.
func checkAttack(attr stream.Attribution, a attackResult) error {
	if !containsAll(a.candidates, a.want) {
		return fmt.Errorf("true sources %v not all in the %d final candidates", a.want, len(a.candidates))
	}
	if a.dropped != 0 {
		return fmt.Errorf("pipeline shed %d events", a.dropped)
	}
	if a.accounted != a.sent {
		return fmt.Errorf("accounted %d of %d events", a.accounted, a.sent)
	}
	if a.settled != 0 {
		return fmt.Errorf("%d events excluded from rounds", a.settled)
	}
	if want := refold(attr, a.rounds); !equalInts(a.deployed, want) {
		return fmt.Errorf("deployed %v, a bare evaluator deploys %v", a.deployed, want)
	}
	return nil
}

// checkAttacks checks every attack of an op and returns the op's counts.
func checkAttacks(attr stream.Attribution, r any) (opCounts, error) {
	res := r.(*localizeResult)
	deploys, events, sum := res.counts()
	oc := opCounts{deploys: deploys, work: events, sum: sum}
	for i, a := range res.attacks {
		if err := checkAttack(attr, a); err != nil {
			return oc, fmt.Errorf("attack %d: %w", i, err)
		}
	}
	return oc, nil
}

// runAttacks is the op of every localize workload: the attacks one after
// another, stopping at the first that fails.
func runAttacks(attacks []attack, run func(attack) (attackResult, error)) (any, error) {
	res := &localizeResult{}
	for _, a := range attacks {
		ar, err := run(a)
		res.attacks = append(res.attacks, ar)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// awaitDeploy blocks until the pipeline has folded the round just sent:
// it returns the configuration the Deploy callback announced, or
// converged when the pipeline reports it is done instead. The rounds
// counter is no substitute for the callback — it moves before Deploy
// runs.
func awaitDeploy(pipe *stream.Pipeline, deployed <-chan int, poll *time.Ticker, deadline time.Time) (cfg int, converged bool, err error) {
	for {
		select {
		case cfg = <-deployed:
			return cfg, false, nil
		case <-poll.C:
			if pipe.Converged() {
				return 0, true, nil
			}
			if time.Now().After(deadline) {
				return 0, false, errors.New("not converged before the deadline")
			}
		}
	}
}

// refold replays an attack's rounds through a bare evaluator and
// returns the configurations it deploys — the reference the sharded
// controller's sequence must equal.
func refold(attr stream.Attribution, rounds [][]int64) []int {
	ev := stream.NewEvaluator(attr, stream.EvalParams{})
	for _, pkts := range rounds {
		ev.Step(pkts, false, nil, nil, false)
	}
	return ev.Deployed()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// streamCounters reads the pipeline counters the per-layer report
// quotes, from the registry the pipelines write to.
type streamCounters struct{ batches, settled int64 }

func readStreamCounters(reg *metrics.Registry) streamCounters {
	return streamCounters{
		batches: reg.Counter("stream_batches_total").Value(),
		settled: reg.Counter("stream_settle_excluded_total").Value(),
	}
}

// ---- localize-loopback ------------------------------------------------

// floodWindow is how many packets may be in flight between the attacker
// socket and the tap; the tap signals every floodBurst packets. Sending
// unpaced overruns the loopback socket buffers and most packets never
// reach the border, so the loop would measure the kernel dropping them.
const (
	floodWindow = 64
	floodBurst  = 32
	// floodStall is how long the sender waits for the tap before it
	// writes the packets in flight off as lost and sends replacements.
	floodStall = 100 * time.Millisecond
)

// loopback drives single-source attacks through the real packet plane:
// attacker socket → border → honeypot → tap → pipeline → deploy →
// border catchment table. Each round delivers exactly loopbackRound
// packets and the next starts once the pipeline has deployed: a round's
// size is then a constant, and so is everything the evaluator computes
// from it. (Left to flood freely, rounds fold a few dozen packets apart
// from op to op, the volume estimates scale with them, and equal-scored
// configurations swap places in the greedy pick.)
type loopback struct {
	w       *localizeWorld
	sc      scale
	attacks []attack
	reg     *metrics.Registry
	hp      *amp.Honeypot
	border  *amp.Border
	att     *amp.Attacker
	payload []byte

	// tapped counts packets the tap has seen; the tap signals when the
	// count reaches a multiple of floodBurst or the sender's target.
	tapped atomic.Int64
	target atomic.Int64
	signal chan struct{}
	stall  *time.Timer

	// probe accumulates what the per-layer report needs across ops.
	sentTotal, tappedTotal int64
}

func openLoopback(sc scale, catalogue, seed uint64) (*loopback, error) {
	w, err := buildLocalizeWorld(sc)
	if err != nil {
		return nil, err
	}
	l := &loopback{
		w: w, sc: sc,
		attacks: buildAttacks(w, catalogue, seed, sc.loopbackAttacks, 1),
		reg:     metrics.NewRegistry(),
		payload: make([]byte, 8),
		// One pending signal is enough: it only says "the count moved".
		signal: make(chan struct{}, 1),
		stall:  time.NewTimer(time.Hour),
	}
	if l.hp, err = amp.NewHoneypot("127.0.0.1:0", amp.DefaultHoneypotConfig()); err != nil {
		return nil, err
	}
	l.hp.SetMetrics(l.reg)
	if l.border, err = amp.NewBorder("127.0.0.1:0", l.hp.Addr().(*net.UDPAddr), nil); err != nil {
		l.hp.Close()
		return nil, err
	}
	l.border.SetMetrics(l.reg)
	if l.att, err = amp.NewAttacker(0, l.attacks[0].events[0].SpoofedSrc); err != nil {
		l.border.Close()
		l.hp.Close()
		return nil, err
	}
	return l, nil
}

func (l *loopback) close() {
	l.att.Close()
	l.border.Close()
	l.hp.Close()
	l.stall.Stop()
}

// tap wraps a per-packet sink with the count-and-signal the sender's
// window runs on.
func (l *loopback) tap(sink func(amp.Event)) amp.Tap {
	return func(ev amp.Event) {
		sink(ev)
		if n := l.tapped.Add(1); n%floodBurst == 0 || n == l.target.Load() {
			select {
			case l.signal <- struct{}{}:
			default:
			}
		}
	}
}

// awaitTap blocks until the tap signals or the stall timer fires; it
// reports whether the tap signalled.
func (l *loopback) awaitTap() bool {
	if !l.stall.Stop() {
		select {
		case <-l.stall.C:
		default:
		}
	}
	l.stall.Reset(floodStall)
	select {
	case <-l.signal:
		return true
	case <-l.stall.C:
		return false
	}
}

// deliver sends until exactly n more packets have reached the tap,
// keeping at most floodWindow in flight. Packets that do not arrive
// within floodStall are written off and replaced. It returns how many
// were sent, and gives up at the deadline.
func (l *loopback) deliver(tr *tracer, parent spanID, n int64, deadline time.Time) (sent int64, err error) {
	start := l.tapped.Load()
	l.target.Store(start + n)
	var lost int64
	for {
		got := l.tapped.Load() - start
		if got >= n {
			return sent, nil
		}
		if time.Now().After(deadline) {
			return sent, fmt.Errorf("%d of %d packets delivered before the deadline", got, n)
		}
		inflight := sent - lost - got
		if remaining := n - got - inflight; remaining > 0 && inflight+floodBurst <= floodWindow {
			burst := int64(floodBurst)
			if remaining < burst {
				burst = remaining
			}
			sp := tr.start(parent, "amp.flood")
			m, err := l.att.FloodPayload(l.border.Addr(), int(burst), l.payload)
			tr.end(sp)
			sent += int64(m)
			if err != nil {
				return sent, err
			}
			continue
		}
		sp := tr.start(parent, "amp.serve_wait")
		ok := l.awaitTap()
		tr.end(sp)
		if !ok && l.tapped.Load()-start == got {
			lost += inflight
		}
	}
}

func (l *loopback) attack(a attack, tr *tracer, parent spanID) (attackResult, error) {
	res := attackResult{want: a.sources}
	before := readStreamCounters(l.reg)
	// As in direct: one slot, taken before the next round is sent.
	deployed := make(chan int, 1)

	sp := tr.start(parent, "stream.new")
	pipe, err := stream.New(l.w.attr, stream.Config{
		Workers:         1,
		FlushInterval:   pipelineTick,
		EvalInterval:    pipelineTick,
		MinRoundPackets: l.sc.loopbackRound,
		Settle:          pipelineTick,
		Metrics:         l.reg,
		Deploy: func(cfgIdx int, table map[uint32]uint8) {
			dsp := tr.start(parent, "amp.set_catchments")
			l.border.SetCatchments(table)
			tr.end(dsp)
			deployed <- cfgIdx
		},
	})
	tr.end(sp)
	if err != nil {
		return res, err
	}
	l.hp.SetTap(l.tap(func(ev amp.Event) { pipe.Ingest(ev) }))
	src := a.sources[0]
	l.att.TrueAS = uint32(l.w.attr.SourceASNs[src])
	l.att.Victim = a.events[0].SpoofedSrc

	poll := time.NewTicker(pipelineTick / 2)
	defer poll.Stop()
	deadline := time.Now().Add(localizeDeadline)
	tapped0 := l.tapped.Load()
	cfg := <-deployed
	var ferr error
	for {
		sent, err := l.deliver(tr, parent, l.sc.loopbackRound, deadline)
		res.sent += l.sc.loopbackRound
		res.resent += sent - l.sc.loopbackRound
		if err != nil {
			ferr = err
			break
		}
		pkts := make([]int64, l.w.attr.NumLinks)
		pkts[l.w.attr.Catchments[cfg][src]] = l.sc.loopbackRound
		res.rounds = append(res.rounds, pkts)

		sp = tr.start(parent, "stream.round_wait")
		next, converged, err := awaitDeploy(pipe, deployed, poll, deadline)
		if err == nil && !converged {
			// Sit out the pipeline's settle window, as an origin waits
			// for BGP to converge: a packet stamped inside it is left out
			// of the round, and the round would come up short.
			time.Sleep(pipelineTick)
		}
		tr.end(sp)
		if ferr = err; err != nil || converged {
			break
		}
		cfg = next
	}
	l.hp.SetTap(nil)
	sp = tr.start(parent, "stream.close")
	pipe.Close()
	tr.end(sp)

	res.accounted = pipe.TotalEvents()
	res.candidates = pipe.Candidates()
	res.deployed = pipe.Deployed()
	res.dropped = pipe.Dropped()
	res.settled = readStreamCounters(l.reg).settled - before.settled
	l.sentTotal += res.sent + res.resent
	l.tappedTotal += l.tapped.Load() - tapped0
	return res, ferr
}

func (l *loopback) op(tr *tracer, parent spanID) (any, error) {
	return runAttacks(l.attacks, func(a attack) (attackResult, error) { return l.attack(a, tr, parent) })
}

func (l *loopback) check(r any) (opCounts, error) {
	oc, err := checkAttacks(l.w.attr, r)
	if err != nil {
		return oc, err
	}
	// The windowed sender must not have needed replacements for more
	// than one packet in a hundred.
	for i, a := range r.(*localizeResult).attacks {
		if a.resent*100 > a.sent {
			return oc, fmt.Errorf("attack %d: %d packets re-sent for %d delivered", i, a.resent, a.sent)
		}
	}
	return oc, nil
}

// ---- localize-direct --------------------------------------------------

// direct feeds botnet attacks straight into Pipeline.Ingest, stamping
// each event's ingress link from the configuration deployed at that
// moment, exactly as the border would. Every round carries exactly
// directRound events, so deploys, events and allocations repeat.
type direct struct {
	w       *localizeWorld
	sc      scale
	attacks []attack
	reg     *metrics.Registry

	// probe accumulates what the per-layer report needs across ops.
	newMS, closeMS, roundWaitMS []float64
	ingestCPU                   time.Duration
	ingested                    int64
	batches                     int64
	settled, dropped            int64
}

func openDirect(sc scale, catalogue, seed uint64) (*direct, error) {
	w, err := buildLocalizeWorld(sc)
	if err != nil {
		return nil, err
	}
	return &direct{
		w: w, sc: sc,
		attacks: buildAttacks(w, catalogue, seed, sc.directAttacks, sc.botnetSize),
		reg:     metrics.NewRegistry(),
	}, nil
}

func (d *direct) close() {}

// sendRound replays the attack's template until n events are in,
// stamping the link each source's traffic enters on under row and
// counting them per link into pkts. It returns how many the program
// accepted.
func sendRound(a attack, row []bgp.LinkID, n int64, ingest func(amp.Event) bool, pkts []int64) (accepted int64) {
	for sent := int64(0); sent < n; sent += int64(len(a.events)) {
		// One clock read per template cycle: a read per event would cost
		// the harness a tenth of what the pipeline spends on it.
		now := time.Now()
		for i := range a.events {
			ev := a.events[i]
			link := row[a.pos[i]]
			ev.IngressLink = uint8(link)
			ev.Time = now
			if ingest(ev) {
				accepted++
			}
			pkts[link]++
		}
	}
	return accepted
}

func (d *direct) attack(a attack, tr *tracer, parent spanID) (attackResult, error) {
	res := attackResult{want: a.sources}
	before := readStreamCounters(d.reg)
	// Deploy runs on the controller goroutine and must not block; the
	// load goroutine takes each configuration off before it sends the
	// round that could trigger the next, so one slot is enough.
	deployed := make(chan int, 1)

	t0 := time.Now()
	sp := tr.start(parent, "stream.new")
	pipe, err := stream.New(d.w.attr, stream.Config{
		Workers:         1,
		FlushInterval:   pipelineTick,
		EvalInterval:    pipelineTick,
		MinRoundPackets: d.sc.directRound,
		Metrics:         d.reg,
		Deploy:          func(cfgIdx int, _ map[uint32]uint8) { deployed <- cfgIdx },
	})
	tr.end(sp)
	if err != nil {
		return res, err
	}
	d.newMS = append(d.newMS, ms(time.Since(t0)))

	poll := time.NewTicker(pipelineTick / 2)
	defer poll.Stop()
	deadline := time.Now().Add(localizeDeadline)
	cfg := <-deployed
	var ferr error
	for {
		pkts := make([]int64, d.w.attr.NumLinks)
		cpu0 := cpuTime()
		sp = tr.start(parent, "stream.ingest")
		sendRound(a, d.w.attr.Catchments[cfg], d.sc.directRound, pipe.Ingest, pkts)
		tr.end(sp)
		d.ingestCPU += cpuTime() - cpu0
		res.sent += d.sc.directRound
		res.rounds = append(res.rounds, pkts)

		// The round is in; the pipeline folds it on its next tick and
		// either deploys or reports convergence.
		lastEvent := time.Now()
		sp = tr.start(parent, "stream.round_wait")
		next, converged, err := awaitDeploy(pipe, deployed, poll, deadline)
		tr.end(sp)
		if ferr = err; err != nil || converged {
			break
		}
		cfg = next
		d.roundWaitMS = append(d.roundWaitMS, ms(time.Since(lastEvent)))
	}

	t0 = time.Now()
	sp = tr.start(parent, "stream.close")
	pipe.Close()
	tr.end(sp)
	d.closeMS = append(d.closeMS, ms(time.Since(t0)))

	after := readStreamCounters(d.reg)
	res.accounted = pipe.TotalEvents()
	res.candidates = pipe.Candidates()
	res.deployed = pipe.Deployed()
	res.dropped = pipe.Dropped()
	res.settled = after.settled - before.settled
	d.ingested += res.sent
	d.batches += after.batches - before.batches
	d.settled += res.settled
	d.dropped += res.dropped
	return res, ferr
}

func (d *direct) op(tr *tracer, parent spanID) (any, error) {
	return runAttacks(d.attacks, func(a attack) (attackResult, error) { return d.attack(a, tr, parent) })
}

func (d *direct) check(r any) (opCounts, error) { return checkAttacks(d.w.attr, r) }

// ---- localize-sharded -------------------------------------------------

// quiesceTimeout bounds one Quiesce; the rounds are small, so a shard
// that has not flushed by then is stuck.
const quiesceTimeout = 5 * time.Second

// sharded runs the same botnet attacks through an in-process shard
// cluster driven round by round: Ingest, Quiesce, Step. The rounds are
// small, so the controller's merge-fold-broadcast and the per-node
// table builds carry the cost, not ingest.
type sharded struct {
	w       *localizeWorld
	sc      scale
	attacks []attack

	// probe accumulates what the per-layer report needs across ops.
	newMS, quiesceMS, stepUS []float64
	ingestCPU                time.Duration
	ingested                 int64
	deferred, discarded      int64
	lastRing                 *shard.Ring
}

func openSharded(sc scale, catalogue, seed uint64) (*sharded, error) {
	w, err := buildLocalizeWorld(sc)
	if err != nil {
		return nil, err
	}
	return &sharded{
		w: w, sc: sc,
		attacks: buildAttacks(w, catalogue, seed, sc.shardedAttacks, sc.botnetSize),
	}, nil
}

func (s *sharded) close() {}

func (s *sharded) attack(a attack, tr *tracer, parent spanID) (attackResult, error) {
	res := attackResult{want: a.sources}

	t0 := time.Now()
	sp := tr.start(parent, "shard.new_cluster")
	cl, err := shard.NewCluster(shard.ClusterConfig{
		Shards:          s.sc.shards,
		Attr:            s.w.attr,
		MinRoundPackets: s.sc.shardedRound,
		Pipe: stream.Config{
			Workers:       1,
			FlushInterval: pipelineTick,
			// Each node renders and applies the table of every epoch's
			// configuration, as a node fronting its own border would.
			Deploy: func(int, map[uint32]uint8) {},
		},
	})
	tr.end(sp)
	if err != nil {
		return res, err
	}
	s.newMS = append(s.newMS, ms(time.Since(t0)))

	deadline := time.Now().Add(localizeDeadline)
	cfg := s.w.attr.InitialConfig
	var ferr error
	for {
		pkts := make([]int64, s.w.attr.NumLinks)
		cpu0 := cpuTime()
		sp = tr.start(parent, "shard.ingest")
		accepted := sendRound(a, s.w.attr.Catchments[cfg], s.sc.shardedRound, cl.Ingest, pkts)
		tr.end(sp)
		s.ingestCPU += cpuTime() - cpu0
		res.sent += s.sc.shardedRound
		res.rounds = append(res.rounds, pkts)

		t0 = time.Now()
		sp = tr.start(parent, "shard.quiesce")
		err := cl.Quiesce(quiesceTimeout)
		tr.end(sp)
		s.quiesceMS = append(s.quiesceMS, ms(time.Since(t0)))
		if err != nil {
			ferr = err
			break
		}
		// Quiesce returns once every shard has flushed all the events
		// routed to it, so what Ingest accepted is now accounted.
		res.accounted += accepted

		t0 = time.Now()
		sp = tr.start(parent, "shard.step")
		step, err := cl.Step(false)
		tr.end(sp)
		s.stepUS = append(s.stepUS, us(time.Since(t0)))
		if err != nil {
			ferr = err
			break
		}
		if step.Deferred {
			s.deferred++
		}
		if step.Discarded {
			s.discarded++
		}
		if !step.Folded {
			ferr = fmt.Errorf("a complete round of %d events was not folded", s.sc.shardedRound)
			break
		}
		if step.Outcome.Converged {
			break
		}
		if step.Outcome.Deploy < 0 {
			ferr = errors.New("round folded without a deployment or convergence")
			break
		}
		cfg = step.Outcome.Deploy
		if time.Now().After(deadline) {
			ferr = errors.New("not converged before the deadline")
			break
		}
	}

	ct := cl.Controller()
	res.candidates = ct.Evaluator().Candidates()
	res.deployed = ct.Evaluator().Deployed()
	s.lastRing = ct.Ring()
	sp = tr.start(parent, "shard.close")
	cl.Close()
	tr.end(sp)
	s.ingested += res.sent
	return res, ferr
}

func (s *sharded) op(tr *tracer, parent spanID) (any, error) {
	return runAttacks(s.attacks, func(a attack) (attackResult, error) { return s.attack(a, tr, parent) })
}

func (s *sharded) check(r any) (opCounts, error) { return checkAttacks(s.w.attr, r) }
