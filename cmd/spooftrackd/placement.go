package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/fault"
	"spooftrack/internal/report"
	"spooftrack/internal/shard"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
)

// placement is where the loop's two halves — count (stream.Intake) and
// decide (stream.Evaluator) — run relative to this process; the package
// comment has the table. The daemon's skeleton drives every placement
// through this interface and never asks which one it holds.
type placement interface {
	// ingest is the honeypot tap.
	ingest(ev amp.Event)
	// drain folds what is still in flight, stops the placement's
	// goroutines and logs the outcome; timeout bounds the waits inside.
	drain(timeout time.Duration)
	// deployed lists the configurations deployed so far, in order.
	deployed() []int
	// degraded is the placement's own readiness gate and the count of
	// events it has lost, for /readyz and /faults.
	degraded() (bool, int64)
	// routes registers the endpoints this placement owns.
	routes(mux *http.ServeMux)
}

// wiring is what a placement's halves are closed onto: the shared
// attribution contract, the loop configuration with its callbacks
// filled in (the count half reads Workers, Settle, Deploy and Metrics;
// the decide half the rest), the fault injector (nil = none) and the SLO
// gate a shard reports to its controller.
type wiring struct {
	attr  stream.Attribution
	pipe  stream.Config
	inj   *fault.Injector
	ready func() bool
}

// newPlacement builds and starts the placement the flags select.
func newPlacement(ctx context.Context, pc placeConfig, w wiring) (placement, error) {
	switch {
	case pc.peerIDs != nil:
		return newController(ctx, pc, w)
	case pc.shardID != "":
		// The external controller owns evaluation and provenance; this
		// process accumulates counters, serves /shard/*, and deploys
		// whatever epoch updates arrive.
		node, err := shard.NewNode(shard.NodeConfig{
			ID: pc.shardID, Attr: w.attr, Pipe: w.pipe,
			// The membership gate the controller polls on every collect:
			// an SLO breach asks to be drained.
			Ready: w.ready,
		})
		if err != nil {
			return nil, fmt.Errorf("shard node: %w", err)
		}
		slog.Info("running as ingest shard", "id", pc.shardID)
		return &shardNode{node, lossy(w.inj, func(ev amp.Event) { node.Ingest(ev) })}, nil
	case pc.shards > 0:
		// Sharded semantics (epochs, terms, drain/evict, provable
		// coarsening) without the fleet.
		cl, err := shard.NewCluster(shard.ClusterConfig{
			Shards:          pc.shards,
			Attr:            w.attr,
			MinRoundPackets: w.pipe.MinRoundPackets,
			Pipe:            w.pipe,
			Injector:        w.inj,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		slog.Info("in-process sharded ingest", "shards", pc.shards)
		// One controller round per tick, election included: the first
		// tick elects, and a crashed controller's standby takes over on
		// lease expiry.
		rounds := every(ctx, w.pipe.EvalInterval, func() {
			if _, err := cl.Step(false); err != nil {
				slog.Warn("cluster round failed", "err", err)
			}
		})
		return &cluster{cl, rounds}, nil
	default:
		pipe, err := stream.New(w.attr, w.pipe)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		return &single{pipe, lossy(w.inj, func(ev amp.Event) { pipe.Ingest(ev) })}, nil
	}
}

// lossy puts the daemon's injector, when there is one, in front of a
// tap: the placement sees a lossy feed, exercising the degradation path
// end to end. The cluster rolls the same fault inside Ingest (keeping
// the drop schedule identical at every shard count), so wrapping its
// tap too would double-roll it.
func lossy(inj *fault.Injector, tap amp.Tap) amp.Tap {
	if inj == nil {
		return tap
	}
	return inj.WrapTap(tap)
}

// single is both halves in one stream.Pipeline.
type single struct {
	*stream.Pipeline
	tap amp.Tap
}

func (s *single) ingest(ev amp.Event)     { s.tap(ev) }
func (s *single) deployed() []int         { return s.Deployed() }
func (s *single) degraded() (bool, int64) { return false, 0 }

func (s *single) drain(time.Duration) {
	s.Close()
	st := s.Status(5)
	slog.Info("final state", "events", st.TotalEvents, "rounds", st.Rounds,
		"reconfigs", st.Reconfigurations, "converged", st.Converged)
	if rep, err := s.Evidence(); err == nil {
		const maxPrint = 10
		for i, c := range rep.Candidates {
			if i == maxPrint {
				slog.Info("more candidates elided; see /evidence", "remaining", len(rep.Candidates)-maxPrint)
				break
			}
			slog.Info("candidate", "asn", c.ASN, "mean_volume_share", c.MeanVolumeShare,
				"configs_with_traffic", c.ConfigsWithTraffic, "configs_observed", c.ConfigsObserved,
				"cluster_size", c.ClusterSize)
		}
	}
}

func (s *single) routes(mux *http.ServeMux) {
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, s.Status(10)) })
	evidenceRoute(mux, s.Evidence)
}

// evidenceRoute serves the decide half's verdict as an operator report;
// every placement that decides registers it.
func evidenceRoute(mux *http.ServeMux, evidence func() (*report.Report, error)) {
	mux.HandleFunc("/evidence", func(w http.ResponseWriter, r *http.Request) {
		rep, err := evidence()
		switch {
		case errors.Is(err, stream.ErrNoRounds):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			writeJSON(w, rep)
		}
	})
}

// shardNode counts here and is folded by an external controller: it
// has counters to report, never a verdict.
type shardNode struct {
	*shard.Node
	tap amp.Tap
}

func (n *shardNode) ingest(ev amp.Event) { n.tap(ev) }
func (n *shardNode) deployed() []int     { return nil }

func (n *shardNode) degraded() (bool, int64) { return false, 0 }

func (n *shardNode) drain(time.Duration) {
	n.Close()
	st := n.Intake().Status()
	slog.Info("final intake state", "events", st.Total, "epoch", st.Epoch,
		"settle_excluded", st.Settled)
}

func (n *shardNode) routes(mux *http.ServeMux) {
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, n.Intake().Status()) })
	mux.Handle("/shard/", shard.NodeHandler(n.Node))
}

// cluster is N intakes plus lease-elected controllers in this process.
type cluster struct {
	*shard.Cluster
	rounds <-chan struct{} // closed when the round ticker has stopped
}

func (c *cluster) ingest(ev amp.Event) { c.Ingest(ev) }
func (c *cluster) deployed() []int     { return c.Controller().Status().DeployedConfigs }

func (c *cluster) degraded() (bool, int64) {
	return c.Controller().Degraded(), c.Dropped()
}

// drain waits for the round ticker to stop, folds the final round over
// every shard, then stops.
func (c *cluster) drain(time.Duration) {
	<-c.rounds
	if _, err := c.Step(true); err != nil {
		slog.Warn("final cluster round failed", "err", err)
	}
	c.Close()
	logClusterState(c.Controller().Status())
}

func (c *cluster) routes(mux *http.ServeMux) {
	clusterRoutes(mux, func() shard.ClusterStatus { return c.Controller().Status() })
	evidenceRoute(mux, func() (*report.Report, error) { return c.Controller().Evidence() })
}

// controller decides here over intakes in other processes: it collects
// every shard's per-link counters over HTTP, merges them, folds the
// merged round through the shared evaluator, and broadcasts catchment
// epochs back. Leadership is held through the lease (-lease-file shares
// it across replicas, so a standby controller process takes over on
// expiry), and every RPC is fenced by the lease term.
type controller struct {
	*shard.Controller
	rounds <-chan struct{} // closed when the round ticker has stopped
}

func newController(ctx context.Context, pc placeConfig, w wiring) (*controller, error) {
	var lease shard.LeaseStore = shard.NewMemLease()
	if pc.leaseFile != "" {
		fl := shard.NewFileLease(pc.leaseFile)
		if err := fl.Dir(); err != nil {
			return nil, fmt.Errorf("lease file %s unusable: %w", pc.leaseFile, err)
		}
		lease = fl
	} else {
		slog.Warn("in-memory lease: no cross-process failover (set -lease-file)")
	}
	id := pc.controllerID
	if id == "" {
		id = "ctrl-" + strconv.Itoa(os.Getpid())
	}
	ct, err := shard.NewController(shard.ControllerConfig{
		ID:              id,
		Attr:            w.attr,
		Eval:            w.pipe.Eval,
		MinRoundPackets: w.pipe.MinRoundPackets,
		Members:         pc.peerIDs,
		Transport:       pc.peers,
		Lease:           lease,
		Ledger:          w.pipe.Ledger,
	})
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	slog.Info("running as sharded-ingest controller", "id", id, "shards", pc.peerIDs,
		"lease", pc.leaseFile, "interval", w.pipe.EvalInterval)
	// Until every listed shard has answered once, for at most LeaseTTL,
	// a tick only asks the ones still silent: a leader evicts for good a
	// shard whose collects fail a few rounds running, and a shard process
	// started beside this one may not be serving yet. After that each
	// tick acquires (or re-acquires) the lease when not leading,
	// otherwise steps a round.
	waiting, giveUp, logged := pc.peerIDs, time.Now().Add(shard.LeaseTTL), false
	return &controller{ct, every(ctx, w.pipe.EvalInterval, func() {
		if waiting != nil {
			silent := unanswered(pc.peers, id, waiting)
			if len(silent) > 0 && time.Now().Before(giveUp) {
				if !logged || len(silent) < len(waiting) {
					slog.Info("waiting for shards to answer before electing", "shards", silent)
				}
				waiting, logged = silent, true
				return
			}
			if len(silent) > 0 {
				slog.Warn("electing without every shard answering", "silent", silent, "waited", shard.LeaseTTL)
			}
			waiting = nil
		}
		if !ct.Leading() {
			_ = ct.TryLead() // refused while another replica holds the lease
		} else if _, err := ct.Step(false); err != nil && !errors.Is(err, shard.ErrNotLeader) {
			slog.Warn("controller round failed", "err", err)
		}
	})}, nil
}

// unanswered returns the shards of ids that do not answer a Hello. The
// Hello carries term 0, which fences nothing; a shard that refuses it
// as stale has answered.
func unanswered(tr shard.Transport, leader string, ids []string) []string {
	var silent []string
	for _, m := range ids {
		if _, err := tr.Hello(m, shard.HelloRequest{Leader: leader}); err != nil && !errors.Is(err, shard.ErrStaleTerm) {
			silent = append(silent, m)
		}
	}
	return silent
}

func (c *controller) ingest(amp.Event) {}
func (c *controller) deployed() []int  { return c.Status().DeployedConfigs }

func (c *controller) degraded() (bool, int64) { return c.Degraded(), 0 }

// drain folds whatever the shards still hold, then releases the lease
// so a replacement elects immediately instead of waiting out the TTL.
func (c *controller) drain(time.Duration) {
	<-c.rounds
	if c.Leading() {
		if _, err := c.Step(true); err != nil && !errors.Is(err, shard.ErrNotLeader) {
			slog.Warn("final controller round failed", "err", err)
		}
	}
	c.Stop()
	logClusterState(c.Status())
}

func (c *controller) routes(mux *http.ServeMux) {
	clusterRoutes(mux, c.Status)
	evidenceRoute(mux, c.Evidence)
}

func clusterRoutes(mux *http.ServeMux, status func() shard.ClusterStatus) {
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, status()) })
}

// logClusterState is the sharded placements' shutdown summary.
func logClusterState(cs shard.ClusterStatus) {
	slog.Info("final cluster state", "leader", cs.Leader, "term", cs.Term,
		"epoch", cs.Epoch, "rounds", cs.Rounds, "deferred", cs.DeferredRounds,
		"discarded", cs.DiscardedRounds, "degraded", cs.Degraded,
		"converged", cs.Converged, "clusters", cs.NumClusters, "candidates", cs.Candidates)
}

// parseShardPeers parses the -controller spec: comma-separated
// id=http://host:port pairs, each id once, returning the ids in spec
// order and an HTTP transport with every pair registered.
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
		if slices.Contains(ids, id) {
			return nil, nil, fmt.Errorf("shard %q listed twice", id)
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
