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
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
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
)

// attackers is the fixed per-round traffic mix (source position,
// packets per round) — three spoofers hiding among sixteen sources.
var attackers = []struct {
	src  int
	pkts int
}{{5, 30}, {11, 20}, {2, 10}}

func main() {
	role := flag.String("role", "", "internal: child role (shard|controller)")
	id := flag.String("id", "", "internal: child id")
	dir := flag.String("dir", "", "internal: shared scratch directory")
	peers := flag.String("peers", "", "internal: controller's shard spec (id=url,...)")
	flag.Parse()

	switch *role {
	case "":
		orchestrate()
	case "shard":
		runShard(*id, *dir)
	case "controller":
		runCtrl(*id, *dir, *peers)
	default:
		fatalf("unknown -role %q", *role)
	}
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

func loadAttr(dir string) stream.Attribution {
	f, err := os.Open(filepath.Join(dir, topoName))
	if err != nil {
		fatalf("open topology: %v", err)
	}
	defer f.Close()
	g, err := topo.ReadCAIDA(f)
	if err != nil {
		fatalf("read topology: %v", err)
	}
	return attribution(g)
}

// ---- shard role -----------------------------------------------------

// ingestReq is one spoofed packet on the demo's ingest API.
type ingestReq struct {
	AS   uint32 `json:"as"`
	Link uint8  `json:"link"`
}

func runShard(id, dir string) {
	attr := loadAttr(dir)
	n, err := shard.NewNode(shard.NodeConfig{
		ID:   id,
		Attr: attr,
		Pipe: stream.Config{Workers: 1, BatchSize: 1, FlushInterval: time.Millisecond},
	})
	if err != nil {
		fatalf("shard %s: %v", id, err)
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
	serveChild(id, dir, mux)
}

// ---- controller role ------------------------------------------------

func runCtrl(id, dir, peers string) {
	attr := loadAttr(dir)
	tr := shard.NewHTTPTransport(2 * time.Second)
	var ids []string
	for _, kv := range bytes.Split([]byte(peers), []byte(",")) {
		sid, url, ok := bytes.Cut(kv, []byte("="))
		if !ok {
			fatalf("controller %s: bad peer %q", id, kv)
		}
		tr.Register(string(sid), string(url))
		ids = append(ids, string(sid))
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
		fatalf("controller %s: %v", id, err)
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
	serveChild(id, dir, mux)
}

// serveChild listens on an ephemeral port, publishes the address for
// the orchestrator (temp-and-rename so a partial file is never read),
// and serves until the parent kills the process.
func serveChild(id, dir string, mux *http.ServeMux) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("%s: listen: %v", id, err)
	}
	addrFile := filepath.Join(dir, id+".addr")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		fatalf("%s: %v", id, err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fatalf("%s: %v", id, err)
	}
	fatalf("%s: serve: %v", id, http.Serve(ln, mux))
}

// ---- orchestrator ---------------------------------------------------

func orchestrate() {
	start := time.Now()
	dir, err := os.MkdirTemp("", "sharded-ingest-")
	if err != nil {
		fatalf("mkdtemp: %v", err)
	}
	defer os.RemoveAll(dir)

	// One topology file, shared by every process — the -topo-file story.
	p := topo.DefaultGenParams(42)
	p.NumASes = 400
	p.NumTier1 = 5
	g, err := topo.Generate(p)
	if err != nil {
		fatalf("generate topology: %v", err)
	}
	tf, err := os.Create(filepath.Join(dir, topoName))
	if err != nil {
		fatalf("create topology: %v", err)
	}
	if err := topo.WriteCAIDA(tf, g); err != nil {
		fatalf("write topology: %v", err)
	}
	tf.Close()
	attr := attribution(g)
	fmt.Printf("wrote %s (%d ASes); every process derives the same attribution from it\n",
		topoName, g.NumASes())

	children := make(map[string]*exec.Cmd)
	defer func() {
		for _, cmd := range children {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
			cmd.Wait()
		}
	}()
	spawn := func(args ...string) {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fatalf("spawn %v: %v", args, err)
		}
		children[args[1][len("-id="):]] = cmd
	}

	// Four shard-node processes, then two controllers over their addresses.
	var shardIDs []string
	for i := 0; i < numShards; i++ {
		sid := fmt.Sprintf("shard-%d", i)
		shardIDs = append(shardIDs, sid)
		spawn("-role=shard", "-id="+sid, "-dir="+dir)
	}
	addrs := make(map[string]string)
	for _, sid := range shardIDs {
		addrs[sid] = waitAddr(dir, sid)
	}
	peers := ""
	for _, sid := range shardIDs {
		if peers != "" {
			peers += ","
		}
		peers += sid + "=" + addrs[sid]
	}
	ctrlIDs := []string{"ctrl-a", "ctrl-b"}
	for _, cid := range ctrlIDs {
		spawn("-role=controller", "-id="+cid, "-dir="+dir, "-peers="+peers)
		addrs[cid] = waitAddr(dir, cid)
	}
	fmt.Printf("spawned %d shard processes and 2 controller processes (file lease: %s)\n",
		numShards, filepath.Join(dir, "lease"))

	// The local reference fold: same attribution, same parameters, same
	// rounds. The surviving controller's final state must match it
	// byte-for-byte — that is the tentpole's correctness contract.
	ref := stream.NewEvaluator(attr, stream.EvalParams{})
	ring := shard.NewRing(shardIDs)
	routed := make(map[string]int64)
	leader := 0

	for r := 1; r <= numRounds; r++ {
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
				fatalf("round %d: ingest to %s: %v", r, sid, err)
			}
			resp.Body.Close()
			routed[sid] += int64(len(batch))
		}
		quiesce(addrs, routed)

		res, who := step(addrs, ctrlIDs, &leader, false)
		fmt.Printf("round %2d: %s folded merged counters (epoch %d, config %d)\n",
			r, who, res.Epoch, ref.Current())
		ref.Step(pkts, false, nil, nil, false)

		if r == killAfter {
			victim := ctrlIDs[leader]
			fmt.Printf("\n*** SIGKILL %s (the leading controller) mid-campaign ***\n", victim)
			children[victim].Process.Kill()
			children[victim].Wait()
			delete(children, victim)
			fmt.Printf("    waiting out the %s lease TTL; the standby's next acquire is fenced at a higher term\n\n", leaseTTL)
		}
	}
	_, who := step(addrs, ctrlIDs, &leader, true)

	// Compare the survivor's cluster state against the local fold.
	resp, err := http.Get(addrs[who] + "/cluster")
	if err != nil {
		fatalf("cluster status: %v", err)
	}
	var cs shard.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		fatalf("cluster status: %v", err)
	}
	resp.Body.Close()

	fmt.Printf("final cluster state from %s: term=%d epoch=%d rounds=%d deployed=%v converged=%v clusters=%d\n",
		who, cs.Term, cs.Epoch, cs.Rounds, cs.DeployedConfigs, cs.Converged, cs.NumClusters)
	identical := cs.Converged == ref.Converged() &&
		cs.CurrentConfig == ref.Current() &&
		cs.NumClusters == ref.NumClusters() &&
		equalInts(cs.DeployedConfigs, ref.Deployed())
	fmt.Printf("single-node reference fold:      deployed=%v converged=%v clusters=%d\n",
		ref.Deployed(), ref.Converged(), ref.NumClusters())
	fmt.Printf("byte-identical across failover: %v  (%.1fs)\n", identical, time.Since(start).Seconds())
	if !identical {
		os.Exit(1)
	}
}

// step drives one controller round, failing over to the next controller
// when the current one is dead or cannot (yet) take the lease.
func step(addrs map[string]string, ctrlIDs []string, leader *int, final bool) (shard.StepResult, string) {
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
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				fatalf("step via %s: %v", cid, err)
			}
			resp.Body.Close()
			*leader = idx
			return res, cid
		}
		time.Sleep(100 * time.Millisecond)
	}
	fatalf("no controller could complete the round within %s", demoTimeout)
	return shard.StepResult{}, ""
}

// quiesce waits until every shard's pipeline has flushed all routed
// events, so the following collect sees a complete round.
func quiesce(addrs map[string]string, routed map[string]int64) {
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
				fatalf("quiesce: %s flushed %d of %d events", sid, got, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func waitAddr(dir, id string) string {
	path := filepath.Join(dir, id+".addr")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil {
			return string(b)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fatalf("timed out waiting for %s to publish its address", id)
	return ""
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sharded-ingest: "+format+"\n", args...)
	os.Exit(1)
}
