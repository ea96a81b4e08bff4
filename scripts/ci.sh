#!/bin/sh
# CI entry point: check formatting, vet, check that everything under internal/, cmd/ and
# examples/ is reached by something that ships, build, and test the whole module, then run the
# race detector over the concurrency-heavy packages (streaming pipeline,
# honeypot, parallel campaign deployment and its pooled measurement
# scratch, pooled propagation engine, the daemon's placements and
# ticker loops, and the greedy step's pooled scorer, whose per-group
# scratch the pipeline, controller and replay goroutines share, and the
# examples, whose loopback demos run amp, stream and shard together),
# run the two greedy-step benchmarks once, so the recorded one's world
# build is exercised, run the measurement-pass and imputation benchmarks
# once, so their world and campaign builds are exercised too, and run
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

echo "==> go test"
go test ./...

echo "==> go test -race (stream, amp, core, measure, bgp, trace, metrics, watch, tsdb, fault, peering, probe, provenance, shard, sched, cluster, spoof, spooftrackd, examples)"
go test -race ./internal/stream/... ./internal/amp/... ./internal/core/... ./internal/measure/... ./internal/bgp/... ./internal/trace/... ./internal/metrics/... ./internal/watch/... ./internal/tsdb/... ./internal/fault/... ./internal/peering/... ./internal/probe/... ./internal/provenance/... ./internal/shard/... ./internal/sched/... ./internal/cluster/... ./internal/spoof/... ./cmd/spooftrackd/... ./examples/...

echo "==> greedy-step benchmarks (one iteration each: the synthetic split-heavy step and a recorded attack)"
go test -run '^$' -bench GreedyStep -benchtime 1x ./internal/sched/

echo "==> measurement benchmarks (one iteration each: a warm configuration measurement and a campaign's imputation)"
go test -run '^$' -bench 'MeasureOutcome|Impute' -benchtime 1x ./internal/core/ ./internal/measure/

echo "==> budget gates (serial: each compares two timed sides)"
go test -p 1 -run '^$' -bench 'Budget$' -benchtime 1x ./...

echo "ci: all checks passed"
