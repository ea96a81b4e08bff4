package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/peering"
	"spooftrack/internal/report"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
	"spooftrack/internal/tsdb"
	"spooftrack/internal/watch"
)

// plantedAttr is eight sources over two links: configuration c sends
// source i in on link bit c of i, so three configurations single out
// any source; a fourth separates nothing. The planted spoofer is
// source 5.
func plantedAttr() stream.Attribution {
	attr := stream.Attribution{NumLinks: 2, Catchments: make([][]bgp.LinkID, 4)}
	for i := 0; i < 8; i++ {
		attr.SourceASNs = append(attr.SourceASNs, topo.ASN(64500+i))
		for c := 0; c < 3; c++ {
			attr.Catchments[c] = append(attr.Catchments[c], bgp.LinkID(i>>c&1))
		}
		attr.Catchments[3] = append(attr.Catchments[3], 0)
	}
	return attr
}

const (
	plantedSource = 5
	roundPackets  = 20
)

// loopView is what /cluster says about the decide half.
type loopView struct {
	Rounds          int   `json:"rounds"`
	Converged       bool  `json:"converged"`
	CurrentConfig   int   `json:"current_config"`
	DeployedConfigs []int `json:"deployed_configs"`
}

// modeSurface is a placement behind the daemon's assembled mux, with
// testPlacement's stop.
func modeSurface(t *testing.T, attr stream.Attribution, args ...string) (placement, *http.ServeMux, func()) {
	t.Helper()
	reg := metrics.NewRegistry()
	args = append([]string{"-workers", "1", "-eval", "5ms", "-settle", "0", "-min-round", "20"}, args...)
	place, inj, stop := testPlacement(t, reg, attr, args...)
	return place, surface{
		obs:    observability{reg: reg},
		inj:    inj,
		health: peering.NewLinkHealth(attr.NumLinks, 0, 0),
		place:  place,
	}.mux(), stop
}

// registered lists the patterns of mux that the daemon's known paths
// resolve to.
func registered(mux *http.ServeMux) []string {
	seen := map[string]bool{}
	for _, path := range []string{
		"/status", "/evidence", "/cluster", "/shard/collect", "/faults", "/probe",
		"/metrics", "/query", "/dash", "/explain", "/explain/0", "/trace", "/slo",
		"/debug/bundle", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile",
		"/debug/pprof/symbol", "/debug/pprof/trace", "/healthz", "/readyz",
	} {
		if _, pat := mux.Handler(httptest.NewRequest(http.MethodGet, path, nil)); pat != "" {
			seen[pat] = true
		}
	}
	var out []string
	for pat := range seen {
		out = append(out, pat)
	}
	sort.Strings(out)
	return out
}

// sharedPaths are registered by the components every mode has.
var sharedPaths = []string{
	"/dash", "/debug/bundle", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile",
	"/debug/pprof/symbol", "/debug/pprof/trace", "/explain", "/explain/", "/faults",
	"/healthz", "/metrics", "/probe", "/query", "/readyz", "/slo", "/trace",
}

func jsonKeys(t *testing.T, body string) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, body)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestEveryModeLocalizes runs each of the three placements in-process,
// built by the constructor run uses, and the default one again under
// the netsplit fault profile: fixed rounds from the planted source go
// through the tap, one per fold, and every mode must converge on that
// source with exactly the deployments a bare Evaluator makes of the same
// rounds, name it as a candidate on /evidence, report no loss on
// /faults, and log it as a candidate when the decider drains.
func TestEveryModeLocalizes(t *testing.T) {
	attr := plantedAttr()
	for _, tc := range []struct {
		name string
		// build returns the placement events are fed to, the mux whose
		// /cluster shows the decide half and the decider's stop, and the
		// muxes whose paths are pinned, by mode.
		build func(t *testing.T) (feed placement, view *http.ServeMux, stop func(), muxes map[string]*http.ServeMux)
		owns  map[string][]string
		// faults is the profile /faults reports.
		faults string
	}{
		{
			name: "default",
			build: func(t *testing.T) (placement, *http.ServeMux, func(), map[string]*http.ServeMux) {
				p, mux, stop := modeSurface(t, attr)
				return p, mux, stop, map[string]*http.ServeMux{"default": mux}
			},
			owns:   map[string][]string{"default": {"/cluster", "/evidence"}},
			faults: "none",
		},
		{
			// The default placement takes the ingest-tier faults as
			// -shards N does: its one shard's collects and applies are
			// partitioned and its controllers' lease flaps.
			name: "default-netsplit",
			build: func(t *testing.T) (placement, *http.ServeMux, func(), map[string]*http.ServeMux) {
				p, mux, stop := modeSurface(t, attr, "-fault-profile", "netsplit")
				return p, mux, stop, map[string]*http.ServeMux{"default": mux}
			},
			owns:   map[string][]string{"default": {"/cluster", "/evidence"}},
			faults: "netsplit",
		},
		{
			name: "shards",
			build: func(t *testing.T) (placement, *http.ServeMux, func(), map[string]*http.ServeMux) {
				p, mux, stop := modeSurface(t, attr, "-shards", "2")
				return p, mux, stop, map[string]*http.ServeMux{"shards": mux}
			},
			owns:   map[string][]string{"shards": {"/cluster", "/evidence"}},
			faults: "none",
		},
		{
			name: "shard-id+controller",
			build: func(t *testing.T) (placement, *http.ServeMux, func(), map[string]*http.ServeMux) {
				node, nodeMux, _ := modeSurface(t, attr, "-shard-id", "s0")
				srv := httptest.NewServer(nodeMux)
				t.Cleanup(srv.Close)
				_, ctrlMux, stop := modeSurface(t, attr, "-controller", "s0="+srv.URL, "-controller-id", "c0")
				return node, ctrlMux, stop, map[string]*http.ServeMux{"shard-id": nodeMux, "controller": ctrlMux}
			},
			owns:   map[string][]string{"shard-id": {"/status", "/shard/"}, "controller": {"/cluster", "/evidence"}},
			faults: "none",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feed, viewMux, stop, muxes := tc.build(t)
			view := func() loopView {
				res, body := get(t, viewMux, "/cluster")
				var v loopView
				if err := json.Unmarshal([]byte(body), &v); res.StatusCode != http.StatusOK || err != nil {
					t.Fatalf("/cluster: status %d, %v\n%s", res.StatusCode, err, body)
				}
				return v
			}

			ref := stream.NewEvaluator(attr, stream.EvalParams{})
			v := view()
			for deadline := time.Now().Add(10 * time.Second); !v.Converged; {
				link := attr.Catchments[v.CurrentConfig][plantedSource]
				pkts := make([]int64, attr.NumLinks)
				pkts[link] = roundPackets
				for i := 0; i < roundPackets; i++ {
					feed.ingest(amp.Event{
						Time:        time.Now(),
						IngressLink: uint8(link),
						SpoofedSrc:  netip.MustParseAddr("192.0.2.66"),
						WireLen:     24,
					})
				}
				ref.Step(pkts, false, nil, nil, false)
				for folded := v.Rounds + 1; v.Rounds < folded; v = view() {
					if time.Now().After(deadline) {
						t.Fatalf("round %d never folded: %+v", folded, v)
					}
					time.Sleep(time.Millisecond)
				}
			}
			if got := ref.Candidates(); !ref.Converged() || !reflect.DeepEqual(got, []int{plantedSource}) {
				t.Fatalf("reference fold: converged=%v candidates=%v", ref.Converged(), got)
			}
			if !reflect.DeepEqual(v.DeployedConfigs, ref.Deployed()) {
				t.Fatalf("deployed %v, bare Evaluator refold deploys %v", v.DeployedConfigs, ref.Deployed())
			}
			res, body := get(t, viewMux, "/evidence")
			var rep report.Report
			if err := json.Unmarshal([]byte(body), &rep); res.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("/evidence: status %d, %v\n%s", res.StatusCode, err, body)
			}
			planted := attr.SourceASNs[plantedSource]
			if !slices.ContainsFunc(rep.Candidates, func(c report.Candidate) bool { return c.ASN == planted }) {
				t.Fatalf("/evidence candidates %+v do not include the planted AS%d", rep.Candidates, planted)
			}
			var fs faultsStatus
			if _, body := get(t, viewMux, "/faults"); json.Unmarshal([]byte(body), &fs) != nil ||
				fs.Profile != tc.faults || fs.Degraded || fs.DroppedEvents != 0 {
				t.Fatalf("/faults after localizing: want profile %s, not degraded, nothing dropped\n%s", tc.faults, body)
			}
			if tc.faults == "netsplit" && fs.Injected["partition"] == 0 {
				t.Fatalf("netsplit partitioned no RPC: the row ran fault-free\n%+v", fs)
			}

			for mode, mux := range muxes {
				want := append(append([]string(nil), sharedPaths...), tc.owns[mode]...)
				sort.Strings(want)
				if got := registered(mux); !reflect.DeepEqual(got, want) {
					t.Errorf("%s registers %v, want %v", mode, got, want)
				}
			}

			// The verdict outlives the process: draining the decider with
			// slog's default logger writing to a buffer must log the
			// planted AS as a candidate.
			var logs bytes.Buffer
			prev, out, flags := slog.Default(), log.Writer(), log.Flags()
			slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
			stop()
			slog.SetDefault(prev)
			log.SetOutput(out)
			log.SetFlags(flags)
			if want := fmt.Sprintf("msg=candidate asn=%d ", planted); !strings.Contains(logs.String(), want) {
				t.Fatalf("drain logged no %q line:\n%s", want, logs.String())
			}
		})
	}
}

// TestStatusPerMode pins what /status and /cluster say where: a shard
// reports its intake on /status and nothing that reads like a verdict.
// /cluster's keys are the same contract in every placement that
// decides: it is the operator view of the loop and of the shard tier
// (epoch, term, rounds, deferred and discarded rounds, members).
func TestStatusPerMode(t *testing.T) {
	attr := plantedAttr()
	_, shard, _ := modeSurface(t, attr, "-shard-id", "s0")
	res, body := get(t, shard, "/status")
	if got, want := jsonKeys(t, body), []string{
		"bytes", "config", "epoch", "pkts", "settled", "total", "total_bytes",
	}; res.StatusCode != http.StatusOK || !reflect.DeepEqual(got, want) {
		t.Errorf("shard /status: status %d keys %v, want %v", res.StatusCode, got, want)
	}
	if res, _ := get(t, shard, "/evidence"); res.StatusCode != http.StatusNotFound {
		t.Errorf("shard /evidence: status %d, want 404 (a shard has no verdict)", res.StatusCode)
	}

	srv := httptest.NewServer(shard)
	t.Cleanup(srv.Close)
	clusterKeys := []string{
		"candidates", "converged", "current_config", "deferred_rounds", "degraded", "deployed_configs",
		"discarded_rounds", "epoch", "leader", "leading", "members", "num_clusters", "rounds", "term",
	}
	for mode, args := range map[string][]string{
		"default":     nil,
		"-shards 2":   {"-shards", "2"},
		"-controller": {"-controller", "s0=" + srv.URL, "-controller-id", "c0"},
	} {
		_, mux, _ := modeSurface(t, attr, args...)
		res, body := get(t, mux, "/cluster")
		if got := jsonKeys(t, body); res.StatusCode != http.StatusOK || !reflect.DeepEqual(got, clusterKeys) {
			t.Errorf("%s /cluster: status %d keys %v, want %v", mode, res.StatusCode, got, clusterKeys)
		}
	}
}

// TestReadyzClusterConsultsWatchdog: an SLO breach pulls an in-process
// cluster out of rotation like every other mode.
func TestReadyzClusterConsultsWatchdog(t *testing.T) {
	reg := metrics.NewRegistry()
	place, _, _ := testPlacement(t, reg, plantedAttr(), "-shards", "2")
	dog := watch.New(watch.Config{Registry: reg, DB: tsdb.New(tsdb.Options{Registry: reg}), Rules: []watch.Rule{alwaysBreach()}})
	mux := componentMux(func(mux *http.ServeMux) { sloRoutes(mux, dog, place.degraded) })
	if res, body := get(t, mux, "/readyz"); res.StatusCode != http.StatusOK {
		t.Fatalf("readyz before the breach: status %d\n%s", res.StatusCode, body)
	}
	if fired := dog.Evaluate(time.Now()); len(fired) != 1 {
		t.Fatalf("expected 1 breach, got %d", len(fired))
	}
	res, body := get(t, mux, "/readyz")
	if res.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "always-breach") {
		t.Fatalf("readyz in breach: status %d, want 503 naming the rule\n%s", res.StatusCode, body)
	}
}

// TestShardsDeployEachConfigOnce: every intake of a -shards 2 daemon
// deploys each configuration the controller broadcasts, and the packet
// plane applies and logs it once, so the daemon logs the deploy
// sequence the default (one-shard) daemon logs, each configuration once.
func TestShardsDeployEachConfigOnce(t *testing.T) {
	def := daemonDeploys(t)
	shards := daemonDeploys(t, "-shards", "2")
	if len(def) < 2 || def[0] != 0 {
		t.Fatalf("default daemon logged deploys %v, want configuration 0 and at least one reconfiguration", def)
	}
	if !reflect.DeepEqual(shards, def) {
		t.Fatalf("-shards 2 logged deploys %v, the default daemon %v", shards, def)
	}
}

// daemonDeploys boots the daemon in-process on a 400-AS world with its
// demo attacker, waits until /cluster reports convergence, shuts it
// down and returns the configurations its msg=deploy lines name, in
// order.
func daemonDeploys(t *testing.T, args ...string) []int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cfg, err := parseFlags(append([]string{"-listen", addr, "-ases", "400", "-eval", "100ms", "-min-round", "40",
		"-bundle-dir", t.TempDir()}, args...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	cfg.logger = slog.New(slog.NewTextHandler(&logs, nil))
	prev := slog.Default()
	defer slog.SetDefault(prev)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()
	converged := false
	for deadline := time.Now().Add(30 * time.Second); !converged && time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		res, err := http.Get("http://" + addr + "/cluster")
		if err != nil {
			continue
		}
		var v loopView
		err = json.NewDecoder(res.Body).Decode(&v)
		res.Body.Close()
		converged = err == nil && v.Converged
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatalf("daemon %q never converged:\n%s", args, logs.String())
	}
	var deploys []int
	for _, m := range regexp.MustCompile(`msg=deploy config=(\d+) `).FindAllStringSubmatch(logs.String(), -1) {
		c, _ := strconv.Atoi(m[1])
		deploys = append(deploys, c)
	}
	return deploys
}
