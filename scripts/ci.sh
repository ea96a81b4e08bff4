#!/bin/sh
# CI entry point: check formatting, vet (and vet internal/amp for darwin, linux/arm64 and
# linux/386, whose datagram I/O builds from other files than linux/amd64's or, on arm64,
# with other syscall numbers; linux/386 is Linux on the portable file, with 32-bit
# message-header fields), check that everything under internal/, cmd/ and
# examples/ is reached by something that ships (that step ends by printing "config fields: N in T
# types", the exported fields of the …Config/…Options/…Params/…Constraints structs under internal/:
# informational, it gates nothing), check that no non-test Go file under internal/, cmd/ or
# examples/ names the simulator's ground-truth source AS (amp.Event.TrueSrcAS, amp.Packet.TrueSrcAS)
# outside the two places that still carry it until ROADMAP item 29 removes the field: internal/amp's
# wire format, attacker, border and the Event field itself, and the live-loop example's scoring
# of its own attackers, check that no non-test Go file under internal/, cmd/ or examples/ calls
# stream.New (every shipped loop is a shard.Cluster; the single-node Pipeline stays only as
# bench's harness until ROADMAP item 21 ports bench's drivers), build, print the non-test and test Go line
# counts under internal cmd examples spooftrack.go and the number of scripts/reach.allow
# entries (informational: they gate nothing, and make a simplification's line and allow-list
# claims one command to check), and test the whole module, then run the
# race detector over the concurrency-heavy packages (streaming pipeline,
# honeypot, parallel campaign deployment and its pooled measurement
# scratch, pooled propagation engine, BGP sessions (a reader and a
# keepalive ticker each, and the route server's accept loop) and the MRT
# framing over their UPDATE codec, the daemon's placements and
# ticker loops, its shard and controller processes in the multi-process
# failover test, the greedy step's pooled scorer, whose per-group
# scratch the pipeline, controller and replay goroutines share, and the
# examples, whose loopback demos run amp and stream together),
# run the intake's tests ten times under the race detector (the
# concurrent round-protocol test: four producers count into the counter
# shards that hold the round while harvests sum them and epoch advances
# zero them, and every event is folded or settle-excluded exactly once;
# the accounting digest at one and three shards; the digest of every
# catchment table an intake hands its Deploy callback, one table it
# refreshes in place for its life; the check that
# neither an intake nor a shard node starts a goroutine; and the check
# that an update, a ledger verdict's candidates and a snapshot held from
# one round stay as they were while the shard tier folds 20 more, though
# all three share the controller's append-only history), run the packet plane's real-kernel
# delivery tests ten times (the plane's digest, the border's
# mixed-length forward, the attacker's wire digest, the honeypot's read
# digest and the one-read-per-run test: a UDP GSO message that lost or
# reordered a datagram, or a UDP_GRO read the honeypot split wrong,
# shows there first; and the check that the border routes by its own
# copy of each table it is handed, whatever the caller does to its map
# afterwards), run the honeypot-read benchmark once (GSO runs
# and runs of one through a border: CPU per packet and datagrams per
# honeypot read), run the live-loop example twenty times (the regression check for the
# one-shard cluster's round cut, made where the example's flood loop
# steps it, and its gated shutdown Step(true), DESIGN §5.12: a round cut
# and a shutdown fold have each shown as a lost attacker in a small
# share of runs), run the daemon's
# multi-process controller failover test five times (election timing
# varies from run to run), run the daemon's in-process modes five times
# under the race detector (each placement, and the default one under the
# netsplit faults, localizes the planted source and logs its verdict at
# drain; every default daemon runs this code:
# the round ticker, then the drain's wait for it and the final Step,
# all beside a standby controller), fuzz the daemon's /query handler for
# 10 s (arbitrary series, range, window and func parameters: no panic,
# only 200 or 400, and every 200 a range with from < to), run the single-node versus
# cluster ledger equivalence test and the single-node transcript digest
# twenty times (the two loops share one round lifecycle, DESIGN §5.9, and
# these are what guard that they fold the same rounds), run the two greedy-step
# benchmarks once, so the recorded one's world
# build is exercised, run the measurement-pass, imputation and
# campaign-outcome-heap benchmarks once with -benchmem, so their world and
# campaign builds are exercised too and every log shows a warm
# configuration measurement's B/op and allocs/op (the last reports the
# heap a measured campaign's outcomes hold, in B/config), run the
# metric-history engine's scrape and 2h range-query benchmarks once at
# the default benchtime with -benchmem (a second of benchmark time runs
# about 100 000 scrapes a simulated second apart, over a day of history,
# so the scrape row is the full-tier steady state), so every
# log shows its per-scrape and per-query cost and allocations, and run
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

echo "==> go vet ./internal/amp/ for darwin, linux/arm64 and linux/386 (the portable datagram file, the arm64 syscall numbers, Linux on the portable file)"
GOOS=darwin go vet ./internal/amp/
GOOS=linux GOARCH=arm64 go vet ./internal/amp/
GOOS=linux GOARCH=386 go vet ./internal/amp/

echo "==> reachability (nothing under internal/, cmd/ or examples/ that no shipped code reaches, bar scripts/reach.allow)"
go run scripts/reach.go

echo "==> no origin-side code reads ground truth (TrueSrcAS only in internal/amp's wire format, attacker, border and Event, and in examples/ddos-localization; both go with ROADMAP item 29)"
truth=$(grep -rl --include='*.go' TrueSrcAS internal cmd examples | grep -v '_test\.go$' |
	grep -vx -e internal/amp/wire.go -e internal/amp/attacker.go -e internal/amp/border.go -e internal/amp/tap.go \
		-e examples/ddos-localization/main.go || true)
if [ -n "$truth" ]; then
	echo "these files name TrueSrcAS, which a real origin AS never learns:"
	echo "$truth"
	exit 1
fi

echo "==> one control loop (no non-test Go file under internal/, cmd/ or examples/ calls stream.New; bench's drivers keep the Pipeline until ROADMAP item 21)"
pipelines=$(grep -rl --include='*.go' 'stream\.New(' internal cmd examples | grep -v '_test\.go$' || true)
if [ -n "$pipelines" ]; then
	echo "these files build a stream.Pipeline; run the loop as a one-shard shard.Cluster instead:"
	echo "$pipelines"
	exit 1
fi

echo "==> go build"
go build ./...

echo "==> Go line counts under internal cmd examples spooftrack.go, and reach.allow entries (informational)"
src="internal cmd examples spooftrack.go"
# shellcheck disable=SC2086 # word-split the path list on purpose
echo "non-test: $(find $src -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l), test: $(find $src -name '*_test.go' -exec cat {} + | wc -l), reach.allow: $(grep -c . scripts/reach.allow)"

echo "==> go test"
go test ./...

echo "==> go test -race (stream, amp, core, measure, bgp, bgpwire, mrt, trace, metrics, watch, tsdb, fault, peering, probe, provenance, shard, sched, cluster, spoof, spooftrackd, examples)"
go test -race ./internal/stream/... ./internal/amp/... ./internal/core/... ./internal/measure/... ./internal/bgp/... ./internal/bgpwire/... ./internal/mrt/... ./internal/trace/... ./internal/metrics/... ./internal/watch/... ./internal/tsdb/... ./internal/fault/... ./internal/peering/... ./internal/probe/... ./internal/provenance/... ./internal/shard/... ./internal/sched/... ./internal/cluster/... ./internal/spoof/... ./cmd/spooftrackd/... ./examples/...

echo "==> intake under -race x10 (producers, harvests and advances interleaved: every event counted once; the accounting digest; the deploy-table digest; no intake goroutine; held updates, verdicts and snapshots never change)"
go test -race -count=10 -run '^(TestConcurrentRoundProtocolAccountsOnce|TestIntakeAccountingDigest|TestDeployTableDigest|TestIntakeStartsNoGoroutine|TestHeldStateNeverChanges)$' ./internal/stream/ ./internal/shard/

echo "==> packet-plane delivery x10 (border and attacker GSO sends, the honeypot's GRO read: every datagram once, in order, byte for byte; the border routes by a copy of each table)"
go test -count=10 -run '^(TestPacketPlaneDigest|TestForwardMixedLengthsInOrder|TestAttackerWireDigest|TestHoneypotReadDigest|TestForwardedRunIsOneRead|TestBorderCopiesCatchments)$' ./internal/amp/

echo "==> honeypot-read benchmark (one iteration each: GSO runs and runs of one through a border; CPU per packet, datagrams per read)"
go test -run '^$' -bench HoneypotRead -benchtime 1x ./internal/amp/

echo "==> live-loop example x20 (the one-shard cluster's round cut and shutdown Step(true): every attacker stays a candidate)"
go test -count=20 ./examples/ddos-localization/

echo "==> multi-process controller failover x5 (shard and controller processes on one lease file, the leader SIGKILLed)"
go test -count=5 -run '^TestControllerFailoverAcrossProcesses$' ./cmd/spooftrackd/

echo "==> daemon modes under -race x5 (every placement localizes and logs its verdict at drain: round ticker, drain, final Step beside a standby controller)"
go test -race -count=5 -run '^TestEveryModeLocalizes$' ./cmd/spooftrackd/

echo "==> /query fuzz (10 s: no panic, 200 or 400 only, every 200 a range with from < to)"
go test -run '^$' -fuzz '^FuzzQuery$' -fuzztime 10s ./cmd/spooftrackd/

echo "==> round lifecycle x20 (both loops fold the same rounds: ledger equivalence and the single-node transcript digest)"
go test -count=20 -run '^(TestLedgerEquivalentToSingleNode|TestPipelineTranscriptDigest)$' ./internal/shard/ ./internal/stream/

echo "==> greedy-step benchmarks (one iteration each: the synthetic split-heavy step and a recorded attack)"
go test -run '^$' -bench GreedyStep -benchtime 1x ./internal/sched/

echo "==> measurement benchmarks (one iteration each: a warm configuration measurement, a campaign's imputation, and the heap a measured campaign's outcomes hold; with B/op and allocs/op)"
go test -run '^$' -bench 'MeasureOutcome|Impute|CampaignOutcomeHeap' -benchtime 1x -benchmem ./internal/core/ ./internal/measure/

echo "==> metric-history benchmarks (one run each at the default benchtime: a daemon-shaped scrape and a 2h rate() range query; with B/op and allocs/op)"
go test -run '^$' -bench '^(BenchmarkTsdbScrape|BenchmarkTsdbQueryRange)$' -benchmem ./internal/tsdb/

echo "==> budget gates (serial: each compares two timed sides)"
go test -p 1 -run '^$' -bench 'Budget$' -benchtime 1x ./...

echo "ci: all checks passed"
