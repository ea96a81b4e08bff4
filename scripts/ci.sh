#!/bin/sh
# CI entry point: vet, check that everything under internal/ is reached
# by something that ships, build, and test the whole module, then run the
# race detector over the concurrency-heavy packages (streaming pipeline,
# honeypot, parallel campaign deployment and its pooled measurement
# scratch, pooled propagation engine, the daemon's placements and
# ticker loops, and the greedy step's pooled scorer and refinement table,
# which the pipeline, replay and trajectory goroutines share, and the
# examples, whose loopback demos run amp, stream and shard together),
# and run the five Benchmark…Budget gates (delta propagation, scrape,
# sharded ingest, probe scan, ledger) one package at a time, so no other
# test binary shares the CPUs with their timed samples.
set -eu
cd "$(dirname "$0")/.."

# require_tests PATTERN PKG...: fail unless every name in the -run
# alternation PATTERN is a test of one of PKGs. go test -run passes
# having run nothing when a named test was renamed or deleted.
require_tests() {
	pattern=$1
	shift
	listed=$(go test -list '.*' "$@")
	for name in $(echo "$pattern" | tr '|' ' '); do
		if ! echo "$listed" | grep -qx "$name"; then
			echo "ci: $name is not a test in $*" >&2
			exit 1
		fi
	done
}

echo "==> go vet"
go vet ./...

echo "==> reachability (nothing under internal/ that no shipped code reaches, bar scripts/reach.allow)"
go run scripts/reach.go

echo "==> go build"
go build ./...

echo "==> go test"
go test ./...

echo "==> go test -race (stream, amp, core, measure, bgp, trace, metrics, watch, tsdb, fault, peering, probe, provenance, shard, sched, cluster, spoof, spooftrackd, examples)"
go test -race ./internal/stream/... ./internal/amp/... ./internal/core/... ./internal/measure/... ./internal/bgp/... ./internal/trace/... ./internal/metrics/... ./internal/watch/... ./internal/tsdb/... ./internal/fault/... ./internal/peering/... ./internal/probe/... ./internal/provenance/... ./internal/shard/... ./internal/sched/... ./internal/cluster/... ./internal/spoof/... ./cmd/spooftrackd/... ./examples/...

echo "==> chaos smoke (fixed-seed fault profiles, campaigns must converge)"
go test ./internal/core/ -run 'Chaos' -count=1

echo "==> probe chaos smoke (probe-storm must degrade to low confidence, never wrong)"
go test ./internal/probe/ -run 'ProbeStorm' -count=1

echo "==> provenance replay smoke (ledger must reproduce verdicts byte for byte under faults)"
go test ./internal/provenance/ -run 'Replay' -count=1

echo "==> sharded-ingest chaos smoke (netsplit profile: sharded localization must stay byte-identical to single-node)"
go test ./internal/shard/ -run 'TestChaosByteIdentical/netsplit' -count=1

echo "==> delta-propagation equivalence smoke (full-vs-incremental, runner-up shedding, compact layout, race detector on)"
delta_tests='TestPropagateDeltaMatchesFull|TestOutcomeReleaseRecycling|TestOutcomeCacheCampaignGolden|TestOutcomeCacheShedsCatchmentOnly|TestOutcomeCacheReleaseShed|TestOutcomeCacheConcurrentCampaign|TestPropagateDeltaWarmAllocs|TestRoutingStateLayout|TestNewEngineRejectsWideDegree|TestReverseSlots|TestPerturbedDigest'
require_tests "$delta_tests" ./internal/bgp/
go test -race ./internal/bgp/ -run "$delta_tests" -count=1
# The race detector makes sync.Pool drop items at random, so the
# allocation bounds skip under -race; they run here without it.
alloc_tests='TestPropagateDeltaWarmAllocs|TestOutcomeCachePickSeedAllocs|TestChooseVantagesAllocs|TestTruthCampaignRetainsSeedsOnly'
require_tests "$alloc_tests" ./internal/bgp/ ./internal/measure/ ./internal/core/
go test ./internal/bgp/ ./internal/measure/ ./internal/core/ -run "$alloc_tests" -count=1

echo "==> budget gates (serial: each compares two timed sides)"
go test -p 1 -run '^$' -bench 'Budget$' -benchtime 1x ./...

echo "ci: all checks passed"
