#!/bin/sh
# CI entry point: check formatting, vet, check that everything under internal/, cmd/ and
# examples/ is reached by something that ships, build, print the non-test and test Go line
# counts under internal cmd examples spooftrack.go (informational: they gate nothing, and make
# a simplification's line claim one command to check), and test the whole module, then run the
# race detector over the concurrency-heavy packages (streaming pipeline,
# honeypot, parallel campaign deployment and its pooled measurement
# scratch, pooled propagation engine, the daemon's placements and
# ticker loops, and the greedy step's pooled scorer, whose per-group
# scratch the pipeline, controller and replay goroutines share, and the
# examples, whose loopback demos run amp, stream and shard together),
# run the two greedy-step benchmarks once, so the recorded one's world
# build is exercised, run the measurement-pass, imputation and
# campaign-outcome-heap benchmarks once, so their world and campaign
# builds are exercised too (the last reports the heap a measured
# campaign's outcomes hold, in B/config), and run
# the five Benchmark…Budget gates (delta propagation, scrape, sharded
# ingest, probe scan, ledger) one package at a time, so no other test
# binary shares the CPUs with their timed samples.
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting (run gofmt -w on them):"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> reachability (nothing under internal/, cmd/ or examples/ that no shipped code reaches, bar scripts/reach.allow)"
go run scripts/reach.go

echo "==> go build"
go build ./...

echo "==> Go line counts under internal cmd examples spooftrack.go (informational)"
src="internal cmd examples spooftrack.go"
# shellcheck disable=SC2086 # word-split the path list on purpose
echo "non-test: $(find $src -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l), test: $(find $src -name '*_test.go' -exec cat {} + | wc -l)"

echo "==> go test"
go test ./...

echo "==> go test -race (stream, amp, core, measure, bgp, trace, metrics, watch, tsdb, fault, peering, probe, provenance, shard, sched, cluster, spoof, spooftrackd, examples)"
go test -race ./internal/stream/... ./internal/amp/... ./internal/core/... ./internal/measure/... ./internal/bgp/... ./internal/trace/... ./internal/metrics/... ./internal/watch/... ./internal/tsdb/... ./internal/fault/... ./internal/peering/... ./internal/probe/... ./internal/provenance/... ./internal/shard/... ./internal/sched/... ./internal/cluster/... ./internal/spoof/... ./cmd/spooftrackd/... ./examples/...

echo "==> greedy-step benchmarks (one iteration each: the synthetic split-heavy step and a recorded attack)"
go test -run '^$' -bench GreedyStep -benchtime 1x ./internal/sched/

echo "==> measurement benchmarks (one iteration each: a warm configuration measurement, a campaign's imputation, and the heap a measured campaign's outcomes hold)"
go test -run '^$' -bench 'MeasureOutcome|Impute|CampaignOutcomeHeap' -benchtime 1x ./internal/core/ ./internal/measure/

echo "==> budget gates (serial: each compares two timed sides)"
go test -p 1 -run '^$' -bench 'Budget$' -benchtime 1x ./...

echo "ci: all checks passed"
