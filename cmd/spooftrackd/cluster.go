package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spooftrack"
	"spooftrack/internal/metrics"
	"spooftrack/internal/provenance"
	"spooftrack/internal/sched"
	"spooftrack/internal/shard"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
)

// controllerArgs is everything the controller mode needs from main:
// the shared attribution contract, the shard fleet, and the lease that
// fences failover between controller replicas.
type controllerArgs struct {
	listen    string
	id        string
	peers     string
	leaseFile string
	attr      stream.Attribution
	eval      stream.EvalParams
	minRound  int64
	interval  time.Duration
	tracker   *spooftrack.Tracker
	reg       *metrics.Registry
	tracer    *trace.Tracer
	led       *provenance.Ledger
	db        *tsdb.DB
}

// runController is the -controller mode: no packet plane, no local
// pipeline — this process collects every shard's per-link counters over
// HTTP, merges them, folds the merged round through the shared
// evaluator, and broadcasts catchment epochs back. Leadership is held
// through the lease (-lease-file shares it across replicas, so a
// standby controller process takes over on expiry), and every RPC is
// fenced by the lease term.
func runController(ctx context.Context, a controllerArgs) {
	ids, tr, err := parseShardPeers(a.peers)
	if err != nil {
		slog.Error("bad -controller spec", "err", err)
		os.Exit(2)
	}
	var lease shard.LeaseStore
	if a.leaseFile != "" {
		fl := shard.NewFileLease(a.leaseFile)
		if err := fl.Dir(); err != nil {
			slog.Error("lease file unusable", "path", a.leaseFile, "err", err)
			os.Exit(1)
		}
		lease = fl
	} else {
		slog.Warn("in-memory lease: no cross-process failover (set -lease-file)")
		lease = shard.NewMemLease()
	}
	if a.id == "" {
		a.id = "ctrl-" + strconv.Itoa(os.Getpid())
	}
	platform := a.tracker.World.Platform
	ct, err := shard.NewController(shard.ControllerConfig{
		ID:              a.id,
		Attr:            a.attr,
		Eval:            a.eval,
		MinRoundPackets: a.minRound,
		Members:         ids,
		Transport:       tr,
		Lease:           lease,
		EvalInterval:    a.interval,
		Blocked: func() []bool {
			return sched.QuarantineMask(a.tracker.Plan, platform.Health().IsQuarantined)
		},
		Ledger:  a.led,
		Metrics: a.reg,
	})
	if err != nil {
		slog.Error("controller failed", "err", err)
		os.Exit(1)
	}
	ct.Start()
	slog.Info("running as sharded-ingest controller", "id", a.id, "shards", ids,
		"lease", a.leaseFile, "interval", a.interval)

	cv := &clusterView{status: ct.Status}
	mux := newMux(nil, a.reg, a.tracer, nil, a.tracker.Fault, platform.Health(), nil, a.led, a.db, cv)
	stopHTTP := serveHTTP(a.listen, mux,
		"/cluster /faults /metrics /query /dash /explain /trace /debug/pprof/ /healthz /readyz")

	<-ctx.Done()
	// Fold whatever the shards still hold, then release the lease so a
	// replacement elects immediately instead of waiting out the TTL.
	if ct.Leading() {
		if _, err := ct.Step(true); err != nil && !errors.Is(err, shard.ErrNotLeader) {
			slog.Warn("final controller round failed", "err", err)
		}
	}
	ct.Stop()
	logClusterState(ct.Status())
	stopHTTP()
}

// parseShardPeers parses the -controller spec: comma-separated
// id=http://host:port pairs, returning the sorted-insensitive id list
// and a registered HTTP transport.
func parseShardPeers(spec string) ([]string, *shard.HTTPTransport, error) {
	tr := shard.NewHTTPTransport(0)
	var ids []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, baseURL, ok := strings.Cut(part, "=")
		if !ok || id == "" || baseURL == "" {
			return nil, nil, fmt.Errorf("want id=http://host:port, got %q", part)
		}
		tr.Register(id, baseURL)
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("no shards in %q", spec)
	}
	return ids, tr, nil
}

// loadTopo reads a -topo-file graph (CAIDA serialization).
func loadTopo(path string) (*topo.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topo.ReadCAIDA(f)
}

// saveTopo writes the built topology for -topo-write (temp-and-rename
// so a concurrently starting process never reads a partial file).
func saveTopo(path string, g *topo.Graph) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".topo-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := topo.WriteCAIDA(tmp, g); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
