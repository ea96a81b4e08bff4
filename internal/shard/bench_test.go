package shard

import (
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/stats"
	"spooftrack/internal/stream"
)

// BenchmarkShardIngestBudget gates the sharding tier's tax on the packet
// path: routing an event by its flow key into one of four relay shards
// may cost at most 20 ns/event more than a bare single-node pipeline
// Ingest on the same stream, with the same total counter-shard budget
// (4). The route is one flow-key hash, one remix and one multiply-shift
// over a lock-free snapshot of the live nodes, so anything beyond that
// means a lock or an allocation leaked onto the packet path. The budget
// is absolute: it is what 1.10x allowed while an Ingest cost ~200 ns,
// and since the intake counts events in place (tens of ns) the route's
// fixed few nanoseconds alone read over 1.2x.
func BenchmarkShardIngestBudget(b *testing.B) {
	attr := chaosAttr()
	events := benchEvents(attr, 1024)
	p, err := stream.New(attr, stream.Config{
		Workers:         4,
		FlushInterval:   10 * time.Millisecond,
		EvalInterval:    10 * time.Millisecond,
		MinRoundPackets: 1 << 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	cl, err := NewCluster(ClusterConfig{
		Shards:          4,
		Attr:            attr,
		MinRoundPackets: 1 << 40,
		Pipe: stream.Config{
			Workers:       1,
			FlushInterval: 10 * time.Millisecond,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	// Each sample ingests n events and merges its side's counter shards
	// off the clock, so neither side's merges run into the other's
	// sample.
	const n = 400_000
	sent := int64(0)
	sample := func(ingest func(amp.Event) bool, drain func()) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			ingest(events[i%len(events)])
		}
		ns := float64(time.Since(start).Nanoseconds()) / n
		drain()
		return ns
	}
	single := func() float64 {
		sent += n
		return sample(p.Ingest, func() {
			for p.TotalEvents() < sent {
				time.Sleep(200 * time.Microsecond)
			}
		})
	}
	sharded := func() float64 {
		return sample(cl.Ingest, func() {
			if err := cl.Quiesce(10 * time.Second); err != nil {
				b.Fatal(err)
			}
		})
	}
	var ns []float64
	for i := 0; i < b.N; i++ {
		ns = stats.MinOf(7, single, sharded)
	}
	total := int64(0)
	for _, id := range cl.Nodes() {
		total += cl.nodes[id].Intake().TotalEvents()
	}
	if total != sent { // both sides ingest the same samples
		b.Fatalf("shards accounted %d of %d events", total, sent)
	}
	over := ns[1] - ns[0]
	b.ReportMetric(ns[0], "single-ns/event")
	b.ReportMetric(ns[1], "sharded-ns/event")
	b.ReportMetric(over, "routing-ns/event")
	if over > 20 {
		b.Fatalf("sharded ingest costs %.1f ns/event over single-node, budget is 20", over)
	}
}

// BenchmarkShardMergeRound measures one controller round on a 4-shard
// cluster with no pending traffic: lease renewal, four collect RPCs,
// and the counter merge. This is the fixed per-round cost the
// controller amortizes over every event folded in that round.
func BenchmarkShardMergeRound(b *testing.B) {
	attr := chaosAttr()
	cl, err := NewCluster(ClusterConfig{
		Shards:          4,
		Attr:            attr,
		MinRoundPackets: 1 << 40,
		Pipe:            stream.Config{Workers: 1, FlushInterval: time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Step(false); err != nil {
		b.Fatal(err)
	}
	ct := cl.Controller()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ct.Step(false); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEvents pre-builds a cycling event stream spread across every
// source, each flooding its own victim, so the route sees realistic flow
// key diversity.
func benchEvents(attr stream.Attribution, n int) []amp.Event {
	events := make([]amp.Event, n)
	for i := range events {
		src := i % len(attr.SourceASNs)
		events[i] = chaosEvent(attr, src, attr.InitialConfig)
	}
	return events
}
