package shard

import (
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/stream"
)

// BenchmarkShardIngest compares the per-event cost of the sharded
// ingest path (deterministic drop roll skipped — no injector — then
// consistent-hash ring lookup, shard dispatch, relay accumulate) against
// a bare single-node pipeline Ingest on the same event stream. The
// worker budget is equal on both sides (4 total). scripts/bench.sh
// gates the ratio at 1.10x, min over -count runs, so the sharding tier
// cannot silently grow a lock or an allocation on the packet path.
func BenchmarkShardIngest(b *testing.B) {
	attr := chaosAttr()
	events := benchEvents(attr, 1024)

	b.Run("single-node", func(b *testing.B) {
		p, err := stream.New(attr, stream.Config{
			Workers:         4,
			QueueDepth:      1 << 16,
			BatchSize:       256,
			FlushInterval:   10 * time.Millisecond,
			EvalInterval:    10 * time.Millisecond,
			MinRoundPackets: 1 << 40,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Ingest(events[i%len(events)])
		}
		b.StopTimer()
		p.Close()
		if got := p.TotalEvents(); got != int64(b.N) {
			b.Fatalf("accounted %d of %d events", got, b.N)
		}
	})

	b.Run("sharded-4", func(b *testing.B) {
		cl, err := NewCluster(ClusterConfig{
			Shards:          4,
			Attr:            attr,
			MinRoundPackets: 1 << 40,
			Pipe: stream.Config{
				Workers:       1,
				QueueDepth:    1 << 16,
				BatchSize:     256,
				FlushInterval: 10 * time.Millisecond,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cl.Ingest(events[i%len(events)])
		}
		b.StopTimer()
		if err := cl.Quiesce(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		total := int64(0)
		for _, id := range cl.Nodes() {
			total += cl.nodes[id].Intake().TotalEvents()
		}
		cl.Close()
		if total != int64(b.N) {
			b.Fatalf("accounted %d of %d events", total, b.N)
		}
	})
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
		Pipe:            stream.Config{Workers: 1, BatchSize: 1, FlushInterval: time.Millisecond},
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
// source AS so the ring lookup sees realistic key diversity.
func benchEvents(attr stream.Attribution, n int) []amp.Event {
	events := make([]amp.Event, n)
	for i := range events {
		src := i % len(attr.SourceASNs)
		events[i] = chaosEvent(attr, src, attr.InitialConfig)
	}
	return events
}
