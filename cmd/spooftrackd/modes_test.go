package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"slices"
	"sort"
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

// loopView is what /status (single node) and /cluster (sharded) both
// say about the decide half.
type loopView struct {
	Rounds          int   `json:"rounds"`
	Converged       bool  `json:"converged"`
	CurrentConfig   int   `json:"current_config"`
	DeployedConfigs []int `json:"deployed_configs"`
}

// modeSurface is a placement behind the daemon's assembled mux.
func modeSurface(t *testing.T, attr stream.Attribution, args ...string) (placement, *http.ServeMux) {
	t.Helper()
	reg := metrics.NewRegistry()
	args = append([]string{"-workers", "1", "-eval", "5ms", "-settle", "0", "-min-round", "20"}, args...)
	place := testPlacement(t, reg, attr, args...)
	return place, surface{
		obs:    observability{reg: reg},
		health: peering.NewLinkHealth(attr.NumLinks, 0, 0),
		place:  place,
	}.mux()
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

// TestEveryModeLocalizes runs each of the four placements in-process,
// built by the constructor run uses: fixed rounds from the planted
// source go through the tap, one per fold, and every mode must converge
// on that source with exactly the deployments a bare Evaluator makes of
// the same rounds, and name it as a candidate on /evidence.
func TestEveryModeLocalizes(t *testing.T) {
	attr := plantedAttr()
	for _, tc := range []struct {
		name string
		// build returns the placement events are fed to, the mux and
		// path that show the decide half, and the muxes whose paths are
		// pinned, by mode.
		build func(t *testing.T) (feed placement, view *http.ServeMux, viewPath string, muxes map[string]*http.ServeMux)
		owns  map[string][]string
	}{
		{
			name: "single",
			build: func(t *testing.T) (placement, *http.ServeMux, string, map[string]*http.ServeMux) {
				p, mux := modeSurface(t, attr)
				return p, mux, "/status", map[string]*http.ServeMux{"single": mux}
			},
			owns: map[string][]string{"single": {"/status", "/evidence"}},
		},
		{
			name: "shards",
			build: func(t *testing.T) (placement, *http.ServeMux, string, map[string]*http.ServeMux) {
				p, mux := modeSurface(t, attr, "-shards", "2")
				return p, mux, "/cluster", map[string]*http.ServeMux{"shards": mux}
			},
			owns: map[string][]string{"shards": {"/cluster", "/evidence"}},
		},
		{
			name: "shard-id+controller",
			build: func(t *testing.T) (placement, *http.ServeMux, string, map[string]*http.ServeMux) {
				node, nodeMux := modeSurface(t, attr, "-shard-id", "s0")
				srv := httptest.NewServer(nodeMux)
				t.Cleanup(srv.Close)
				_, ctrlMux := modeSurface(t, attr, "-controller", "s0="+srv.URL, "-controller-id", "c0")
				return node, ctrlMux, "/cluster", map[string]*http.ServeMux{"shard-id": nodeMux, "controller": ctrlMux}
			},
			owns: map[string][]string{"shard-id": {"/status", "/shard/"}, "controller": {"/cluster", "/evidence"}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feed, viewMux, viewPath, muxes := tc.build(t)
			view := func() loopView {
				res, body := get(t, viewMux, viewPath)
				var v loopView
				if err := json.Unmarshal([]byte(body), &v); res.StatusCode != http.StatusOK || err != nil {
					t.Fatalf("%s: status %d, %v\n%s", viewPath, res.StatusCode, err, body)
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

			for mode, mux := range muxes {
				want := append(append([]string(nil), sharedPaths...), tc.owns[mode]...)
				sort.Strings(want)
				if got := registered(mux); !reflect.DeepEqual(got, want) {
					t.Errorf("%s registers %v, want %v", mode, got, want)
				}
			}
		})
	}
}

// TestStatusPerMode pins what /status says where: the single node's
// keys are a contract with its consumers, and a shard reports its
// intake and nothing that reads like a verdict. /cluster's keys are the
// same contract in both placements that decide over shards: it is the
// only operator view of the shard tier (epoch, term, rounds, deferred
// and discarded rounds, members).
func TestStatusPerMode(t *testing.T) {
	attr := plantedAttr()
	_, single := modeSurface(t, attr)
	_, body := get(t, single, "/status")
	if got, want := jsonKeys(t, body), []string{
		"candidates", "converged", "current_config", "deployed_configs", "events_per_sec",
		"history", "mean_cluster_size", "num_clusters", "num_sources", "per_link",
		"reconfigurations", "rounds", "top_sources", "total_bytes", "total_events",
		"uptime_sec", "workers",
	}; !reflect.DeepEqual(got, want) {
		t.Errorf("single-node /status keys %v, want %v", got, want)
	}

	_, shard := modeSurface(t, attr, "-shard-id", "s0")
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
		"-shards 2":   {"-shards", "2"},
		"-controller": {"-controller", "s0=" + srv.URL, "-controller-id", "c0"},
	} {
		_, mux := modeSurface(t, attr, args...)
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
	place := testPlacement(t, reg, plantedAttr(), "-shards", "2")
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
