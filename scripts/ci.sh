#!/bin/sh
# CI entry point: vet, check that everything under internal/ is reached
# by something that ships, build, and test the whole module, then run the
# race detector over the concurrency-heavy packages (streaming pipeline,
# honeypot, parallel campaign deployment and its pooled measurement
# scratch, pooled propagation engine, the daemon's placements and
# ticker loops, and the greedy step's pooled scorer and refinement table,
# which the pipeline, replay and trajectory goroutines share),
# and smoke-test the benchmark harness so a perf regression in the
# engine fast path cannot land silently broken.
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> reachability (nothing under internal/ that no shipped code reaches, bar scripts/reach.allow)"
go run scripts/reach.go

echo "==> go build"
go build ./...

echo "==> go test"
go test ./...

echo "==> go test -race (stream, amp, core, measure, bgp, trace, metrics, watch, tsdb, fault, peering, probe, provenance, shard, sched, cluster, spoof, spooftrackd)"
go test -race ./internal/stream/... ./internal/amp/... ./internal/core/... ./internal/measure/... ./internal/bgp/... ./internal/trace/... ./internal/metrics/... ./internal/watch/... ./internal/tsdb/... ./internal/fault/... ./internal/peering/... ./internal/probe/... ./internal/provenance/... ./internal/shard/... ./internal/sched/... ./internal/cluster/... ./internal/spoof/... ./cmd/spooftrackd/...

echo "==> chaos smoke (fixed-seed fault profiles, campaigns must converge)"
go test ./internal/core/ -run 'Chaos' -count=1

echo "==> probe chaos smoke (probe-storm must degrade to low confidence, never wrong)"
go test ./internal/probe/ -run 'ProbeStorm' -count=1

echo "==> provenance replay smoke (ledger must reproduce verdicts byte for byte under faults)"
go test ./internal/provenance/ -run 'Replay' -count=1

echo "==> sharded-ingest chaos smoke (netsplit profile: sharded localization must stay byte-identical to single-node)"
go test ./internal/shard/ -run 'TestChaosByteIdentical/netsplit' -count=1

echo "==> delta-propagation equivalence smoke (full-vs-incremental, runner-up shedding, race detector on)"
go test -race ./internal/bgp/ -run 'TestPropagateDeltaMatchesFull|TestOutcomeReleaseRecycling|TestOutcomeCacheCampaignGolden|TestOutcomeCacheShedsCatchmentOnly|TestOutcomeCacheReleaseShed|TestOutcomeCacheConcurrentCampaign|TestPropagateDeltaWarmAllocs' -count=1
# The race detector makes sync.Pool drop items at random, so the
# zero-allocation bounds skip under -race; they run here without it.
go test ./internal/bgp/ -run 'TestPropagateDeltaWarmAllocs|TestOutcomeCachePickSeedAllocs' -count=1

echo "==> bench smoke (PropagateFullScale + PropagateDeltaSingleLink, 1 iteration)"
go test ./internal/bgp/ -run '^$' -bench 'PropagateFullScale|PropagateDeltaSingleLink' -benchmem -benchtime 1x

echo "ci: all checks passed"
