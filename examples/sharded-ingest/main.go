// Command sharded-ingest is the multi-process fault-tolerance demo: it
// re-executes itself as four shard-node processes and two controller
// processes (a leader and a standby sharing a file lease), drives ten
// rounds of spoofed traffic through the consistent-hash ring over real
// HTTP, SIGKILLs the leading controller mid-campaign, and shows the
// standby taking over at a higher lease term and finishing the
// localization with results byte-identical to a single-node fold.
//
// Every process agrees on the world the same way the spooftrackd modes
// do: the orchestrator writes one topology file (the -topo-file
// mechanism, CAIDA serialization) and each child derives the shared
// attribution matrix from it.
//
// Run with:
//
//	go run ./examples/sharded-ingest
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/shard"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
)

const (
	numShards   = 4
	numRounds   = 10
	killAfter   = 5 // SIGKILL the leading controller after this round
	leaseTTL    = 1 * time.Second
	numSources  = 16
	numConfigs  = 4
	numLinks    = 2
	topoName    = "topology.txt"
	demoTimeout = 60 * time.Second
	// roleArg starts every child's command line.
	roleArg = "-role="
)

// attackers is the fixed per-round traffic mix (source position,
// packets per round) — three spoofers hiding among sixteen sources.
var attackers = []struct {
	src  int
	pkts int
}{{5, 30}, {11, 20}, {2, 10}}

func main() {
	var err error
	if isChild(os.Args) {
		err = child(os.Args[1:])
	} else {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		err = run(ctx, os.Stdout)
		stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sharded-ingest:", err)
		os.Exit(1)
	}
}

// isChild reports whether args is a child's command line, as spawned by
// run.
func isChild(args []string) bool {
	return len(args) > 1 && strings.HasPrefix(args[1], roleArg)
}

// child runs one shard or controller process. It serves until the
// orchestrator kills it, so it returns only an error.
func child(args []string) error {
	fs := flag.NewFlagSet("sharded-ingest", flag.ContinueOnError)
	role := fs.String("role", "", "internal: child role (shard|controller)")
	id := fs.String("id", "", "internal: child id")
	dir := fs.String("dir", "", "internal: shared scratch directory")
	peers := fs.String("peers", "", "internal: controller's shard spec (id=url,...)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *role {
	case "shard":
		return runShard(*id, *dir)
	case "controller":
		return runCtrl(*id, *dir, *peers)
	}
	return fmt.Errorf("unknown -role %q", *role)
}

// attribution derives the shared source/catchment contract from the
// topology file — the same contract every spooftrackd process computes
// from -topo-file plus the campaign seed. The demo keeps it synthetic
// (sixteen sources, four binary-split configurations over two links) so
// the localization narrative stays readable.
func attribution(g *topo.Graph) stream.Attribution {
	catchments := make([][]bgp.LinkID, numConfigs)
	for c := 0; c < numConfigs; c++ {
		row := make([]bgp.LinkID, numSources)
		for k := 0; k < numSources; k++ {
			row[k] = bgp.LinkID((k >> c) & 1)
		}
		catchments[c] = row
	}
	asns := make([]topo.ASN, numSources)
	for k := range asns {
		asns[k] = g.ASN(k) // dense indices are ASN-sorted: deterministic per file
	}
	return stream.Attribution{Catchments: catchments, SourceASNs: asns, NumLinks: numLinks}
}

func loadAttr(dir string) (stream.Attribution, error) {
	f, err := os.Open(filepath.Join(dir, topoName))
	if err != nil {
		return stream.Attribution{}, err
	}
	defer f.Close()
	g, err := topo.ReadCAIDA(f)
	if err != nil {
		return stream.Attribution{}, fmt.Errorf("read topology: %w", err)
	}
	return attribution(g), nil
}

// ---- shard role -----------------------------------------------------

// ingestReq is one spoofed packet on the demo's ingest API.
type ingestReq struct {
	AS   uint32 `json:"as"`
	Link uint8  `json:"link"`
}

func runShard(id, dir string) error {
	attr, err := loadAttr(dir)
	if err != nil {
		return err
	}
	n, err := shard.NewNode(shard.NodeConfig{
		ID:   id,
		Attr: attr,
		Pipe: stream.Config{Workers: 1, BatchSize: 1, FlushInterval: time.Millisecond},
	})
	if err != nil {
		return fmt.Errorf("shard %s: %w", id, err)
	}
	victim := netip.MustParseAddr("203.0.113.9")

	mux := http.NewServeMux()
	mux.Handle("/shard/", shard.NodeHandler(n))
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		var batch []ingestReq
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, p := range batch {
			n.Ingest(amp.Event{
				Time:        time.Now(),
				IngressLink: p.Link,
				TrueSrcAS:   p.AS,
				SpoofedSrc:  victim,
				WireLen:     64,
			})
		}
		fmt.Fprintf(w, "%d", len(batch))
	})
	mux.HandleFunc("/total", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%d", n.Intake().TotalEvents())
	})
	return serveChild(id, dir, mux)
}

// ---- controller role ------------------------------------------------

func runCtrl(id, dir, peers string) error {
	attr, err := loadAttr(dir)
	if err != nil {
		return err
	}
	tr := shard.NewHTTPTransport(2 * time.Second)
	var ids []string
	for _, kv := range strings.Split(peers, ",") {
		sid, url, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("controller %s: bad peer %q", id, kv)
		}
		tr.Register(sid, url)
		ids = append(ids, sid)
	}
	lease := shard.NewFileLease(filepath.Join(dir, "lease"))
	ct, err := shard.NewController(shard.ControllerConfig{
		ID:              id,
		Attr:            attr,
		MinRoundPackets: 1,
		Members:         ids,
		Transport:       tr,
		Lease:           lease,
		LeaseTTL:        leaseTTL,
	})
	if err != nil {
		return fmt.Errorf("controller %s: %w", id, err)
	}

	// The orchestrator drives rounds over /step (instead of ct.Start's
	// free-running ticker) so round boundaries are deterministic and the
	// final state can be compared byte-for-byte against a local fold.
	mux := http.NewServeMux()
	mux.HandleFunc("/step", func(w http.ResponseWriter, r *http.Request) {
		if !ct.Leading() {
			if err := ct.TryLead(); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			fmt.Fprintf(os.Stderr, "[%s] acquired lease at term %d, recovered epoch from shards\n", id, ct.Term())
		}
		res, err := ct.Step(r.URL.Query().Get("final") == "1")
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ct.Status())
	})
	return serveChild(id, dir, mux)
}

// serveChild listens on an ephemeral port, publishes the address for
// the orchestrator (temp-and-rename so a partial file is never read),
// and serves until the parent kills the process.
func serveChild(id, dir string, mux *http.ServeMux) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("%s: listen: %w", id, err)
	}
	addrFile := filepath.Join(dir, id+".addr")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		return err
	}
	return fmt.Errorf("%s: serve: %w", id, http.Serve(ln, mux))
}

// ---- orchestrator ---------------------------------------------------

// run spawns the shard and controller processes, drives the rounds,
// kills the leading controller after round killAfter, and fails unless
// the survivor's final state is identical to a single-node fold.
func run(ctx context.Context, w io.Writer) error {
	start := time.Now()
	dir, err := os.MkdirTemp("", "sharded-ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One topology file, shared by every process — the -topo-file story.
	p := topo.DefaultGenParams(42)
	p.NumASes = 400
	p.NumTier1 = 5
	g, err := topo.Generate(p)
	if err != nil {
		return fmt.Errorf("generate topology: %w", err)
	}
	var tf bytes.Buffer
	if err := topo.WriteCAIDA(&tf, g); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, topoName), tf.Bytes(), 0o644); err != nil {
		return err
	}
	attr := attribution(g)
	fmt.Fprintf(w, "wrote %s (%d ASes); every process derives the same attribution from it\n",
		topoName, g.NumASes())

	children := make(map[string]*exec.Cmd)
	defer func() {
		for _, cmd := range children {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	addrs := make(map[string]string)
	// spawn starts one child process per id and waits for their addresses.
	spawn := func(role string, ids []string, args ...string) error {
		for _, id := range ids {
			cmd := exec.Command(os.Args[0], append([]string{roleArg + role, "-id=" + id, "-dir=" + dir}, args...)...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("spawn %s: %w", id, err)
			}
			children[id] = cmd
		}
		for _, id := range ids {
			a, err := waitAddr(dir, id)
			if err != nil {
				return err
			}
			addrs[id] = a
		}
		return nil
	}

	// Four shard-node processes, then two controllers over their addresses.
	var shardIDs, spec []string
	for i := 0; i < numShards; i++ {
		shardIDs = append(shardIDs, fmt.Sprintf("shard-%d", i))
	}
	if err := spawn("shard", shardIDs); err != nil {
		return err
	}
	for _, sid := range shardIDs {
		spec = append(spec, sid+"="+addrs[sid])
	}
	ctrlIDs := []string{"ctrl-a", "ctrl-b"}
	if err := spawn("controller", ctrlIDs, "-peers="+strings.Join(spec, ",")); err != nil {
		return err
	}
	fmt.Fprintf(w, "spawned %d shard processes and 2 controller processes (file lease: %s)\n",
		numShards, filepath.Join(dir, "lease"))

	// The local reference fold: same attribution, same parameters, same
	// rounds. The surviving controller's final state must match it
	// byte-for-byte — that is the demo's correctness contract.
	ref := stream.NewEvaluator(attr, stream.EvalParams{})
	ring := shard.NewRing(shardIDs)
	routed := make(map[string]int64)
	leader := 0

	for r := 1; r <= numRounds; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg := ref.Current()
		pkts := make([]int64, numLinks)
		batches := make(map[string][]ingestReq)
		for _, a := range attackers {
			as := uint32(attr.SourceASNs[a.src])
			link := uint8(attr.Catchments[cfg][a.src])
			owner := ring.Owner(as)
			for i := 0; i < a.pkts; i++ {
				batches[owner] = append(batches[owner], ingestReq{AS: as, Link: link})
				pkts[link]++
			}
		}
		for sid, batch := range batches {
			body, _ := json.Marshal(batch)
			resp, err := http.Post(addrs[sid]+"/ingest", "application/json", bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("round %d: ingest to %s: %w", r, sid, err)
			}
			resp.Body.Close()
			routed[sid] += int64(len(batch))
		}
		if err := quiesce(addrs, routed); err != nil {
			return err
		}

		res, who, err := step(addrs, ctrlIDs, &leader, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "round %2d: %s folded merged counters (epoch %d, config %d)\n",
			r, who, res.Epoch, ref.Current())
		ref.Step(pkts, false, nil, nil, false)

		if r == killAfter {
			victim := ctrlIDs[leader]
			fmt.Fprintf(w, "\n*** SIGKILL %s (the leading controller) mid-campaign ***\n", victim)
			children[victim].Process.Kill()
			children[victim].Wait()
			delete(children, victim)
			fmt.Fprintf(w, "    waiting out the %s lease TTL; the standby's next acquire is fenced at a higher term\n\n", leaseTTL)
		}
	}
	_, who, err := step(addrs, ctrlIDs, &leader, true)
	if err != nil {
		return err
	}

	// Compare the survivor's cluster state against the local fold.
	resp, err := http.Get(addrs[who] + "/cluster")
	if err != nil {
		return fmt.Errorf("cluster status: %w", err)
	}
	var cs shard.ClusterStatus
	err = json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("cluster status: %w", err)
	}

	fmt.Fprintf(w, "final cluster state from %s: term=%d epoch=%d rounds=%d deployed=%v converged=%v clusters=%d\n",
		who, cs.Term, cs.Epoch, cs.Rounds, cs.DeployedConfigs, cs.Converged, cs.NumClusters)
	identical := cs.Converged == ref.Converged() &&
		cs.CurrentConfig == ref.Current() &&
		cs.NumClusters == ref.NumClusters() &&
		slices.Equal(cs.DeployedConfigs, ref.Deployed())
	fmt.Fprintf(w, "single-node reference fold:      deployed=%v converged=%v clusters=%d\n",
		ref.Deployed(), ref.Converged(), ref.NumClusters())
	fmt.Fprintf(w, "byte-identical across failover: %v  (%.1fs)\n", identical, time.Since(start).Seconds())
	if !identical {
		return errors.New("the survivor's final state differs from the single-node fold")
	}
	return nil
}

// step drives one controller round, failing over to the next controller
// when the current one is dead or cannot (yet) take the lease.
func step(addrs map[string]string, ctrlIDs []string, leader *int, final bool) (shard.StepResult, string, error) {
	url := "/step"
	if final {
		url = "/step?final=1"
	}
	deadline := time.Now().Add(demoTimeout)
	for time.Now().Before(deadline) {
		for i := 0; i < len(ctrlIDs); i++ {
			idx := (*leader + i) % len(ctrlIDs)
			cid := ctrlIDs[idx]
			resp, err := http.Post(addrs[cid]+url, "application/json", nil)
			if err != nil {
				continue // dead controller: try the standby
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close() // not leader yet: lease not expired
				continue
			}
			var res shard.StepResult
			err = json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if err != nil {
				return res, cid, fmt.Errorf("step via %s: %w", cid, err)
			}
			*leader = idx
			return res, cid, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return shard.StepResult{}, "", fmt.Errorf("no controller could complete the round within %s", demoTimeout)
}

// quiesce waits until every shard's pipeline has flushed all routed
// events, so the following collect sees a complete round.
func quiesce(addrs map[string]string, routed map[string]int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for sid, want := range routed {
		for {
			resp, err := http.Get(addrs[sid] + "/total")
			var got int64
			if err == nil {
				fmt.Fscan(resp.Body, &got)
				resp.Body.Close()
			}
			if got >= want {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("quiesce: %s flushed %d of %d events", sid, got, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func waitAddr(dir, id string) (string, error) {
	path := filepath.Join(dir, id+".addr")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil {
			return string(b), nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("timed out waiting for %s to publish its address", id)
}
