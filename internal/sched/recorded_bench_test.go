package sched_test

import (
	"testing"
	"time"

	"spooftrack"
	"spooftrack/internal/bgp"
	"spooftrack/internal/sched"
	"spooftrack/internal/stats"
)

// localizeWorldSeed is the seed of the world the localize workloads of
// bench/ run against (bench/world.go; bench is a main package, so the
// constant is copied, not imported).
const localizeWorldSeed = 17

// recordedRound is one round of a recorded attack: the configuration it
// was measured under and the volume each link carried.
type recordedRound struct {
	cfg     int
	volumes []float64
}

// recordAttack builds the localize workloads' world — 1000 ASes, 20
// poison targets, true catchments — draws an eight-source botnet from
// the sources routed under every configuration, and runs the live loop
// against it to convergence, each bot sending 250 packets a round. It
// returns the catchment rows and the rounds the loop folded.
func recordAttack(tb testing.TB) ([][]bgp.LinkID, []recordedRound) {
	p := spooftrack.DefaultTrackerParams(localizeWorldSeed)
	tp := spooftrack.DefaultGenParams(localizeWorldSeed)
	tp.NumASes = 1000
	p.World.Topo = &tp
	p.World.MaxPoisonTargets = 20
	p.UseTruth = true
	tr, err := spooftrack.NewTracker(p)
	if err != nil {
		tb.Fatal(err)
	}
	rows := tr.Campaign.Catchments
	var eligible []int
	for k := range rows[0] {
		routed := true
		for _, row := range rows {
			routed = routed && row[k] != bgp.NoLink
		}
		if routed {
			eligible = append(eligible, k)
		}
	}
	const bots = 8
	if len(eligible) < bots {
		tb.Fatalf("only %d sources are routed under every configuration", len(eligible))
	}
	var botnet []int
	for _, i := range stats.NewRNG(1).Perm(len(eligible))[:bots] {
		botnet = append(botnet, eligible[i])
	}

	numLinks := tr.World.Platform.NumLinks()
	loop := sched.NewLoop(rows, 0, 1)
	var rounds []recordedRound
	for cfg := 0; cfg >= 0; {
		volumes := make([]float64, numLinks)
		for _, k := range botnet {
			volumes[rows[cfg][k]] += 250
		}
		rounds = append(rounds, recordedRound{cfg: cfg, volumes: volumes})
		loop.Fold(cfg, volumes)
		cfg, _, _ = loop.Next(nil, nil, false)
		if cfg >= 0 {
			loop.Deploy(cfg)
		}
	}
	return rows, rounds
}

// BenchmarkGreedyStepRecorded times the greedy decisions of one recorded
// attack on the benchmark world: the shape of partition and volume the
// live loop really scores, where most volume-bearing clusters survive
// most configurations whole. An op replays the attack's rounds through
// a fresh sched.Loop; ns/op counts the time inside Loop.Next only, the
// folds between the decisions run outside it:
//
//	go test ./internal/sched -run '^$' -bench GreedyStepRecorded
func BenchmarkGreedyStepRecorded(b *testing.B) {
	rows, rounds := recordAttack(b)
	var inNext time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop := sched.NewLoop(rows, 0, 1)
		for _, r := range rounds {
			loop.Fold(r.cfg, r.volumes)
			t0 := time.Now()
			next, _, _ := loop.Next(nil, nil, false)
			inNext += time.Since(t0)
			if next >= 0 {
				loop.Deploy(next)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(inNext.Nanoseconds())/float64(b.N), "ns/op")
	b.ReportMetric(float64(len(rounds)), "steps")
}
