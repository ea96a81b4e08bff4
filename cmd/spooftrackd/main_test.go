package main

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/fault"
	"spooftrack/internal/metrics"
	"spooftrack/internal/peering"
	"spooftrack/internal/probe"
	"spooftrack/internal/provenance"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
	"spooftrack/internal/watch"
)

// testMux builds the daemon's HTTP surface over a tiny two-source
// default (one-shard) placement, without a packet plane.
func testMux(t *testing.T) *http.ServeMux {
	mux, _ := testMuxWatch(t, nil, "")
	return mux
}

// testMuxWatch is testMux with watchdog rules and a bundle directory,
// returning the watchdog so tests can drive Evaluate directly.
func testMuxWatch(t *testing.T, rules []watch.Rule, bundleDir string) (*http.ServeMux, *watch.Watchdog) {
	t.Helper()
	reg := metrics.NewRegistry()
	place, _, _ := testPlacement(t, reg, stream.Attribution{
		Catchments: [][]bgp.LinkID{{0, 1}, {0, bgp.NoLink}},
		SourceASNs: []topo.ASN{64500, 64501},
		NumLinks:   2,
	}, "-workers", "1")
	tr := trace.New(trace.Options{Enabled: true})
	sp := tr.Start("test.root")
	sp.End()
	db := tsdb.New(tsdb.Options{Registry: reg})
	dog := watch.New(watch.Config{
		Registry:  reg,
		DB:        db,
		Rules:     rules,
		Tracer:    tr,
		BundleDir: bundleDir,
	})
	return surface{
		obs:    observability{reg: reg, tracer: tr, db: db},
		dog:    dog,
		health: peering.NewLinkHealth(2, 0, 0),
		place:  place,
	}.mux(), dog
}

// testPlacement builds the placement args select over attr through the
// daemon's own constructor, with the injector -fault-profile names (nil
// when it names none). stop cancels the placement's context and drains
// it, as run does at shutdown; the test's cleanup calls it unless the
// test has.
func testPlacement(t *testing.T, reg *metrics.Registry, attr stream.Attribution, args ...string) (place placement, inj *fault.Injector, stop func()) {
	t.Helper()
	cfg, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	if cfg.world.faultProfile != "" {
		prof, err := fault.ProfileByName(cfg.world.faultProfile)
		if err != nil {
			t.Fatal(err)
		}
		inj = fault.New(prof, cfg.world.faultSeed, attr.NumLinks)
	}
	w := wiring{attr: attr, pipe: cfg.pipe, inj: inj, ready: func() bool { return true }}
	w.pipe.Metrics = reg
	ctx, cancel := context.WithCancel(context.Background())
	place, err = newPlacement(ctx, cfg.place, w)
	if err != nil {
		cancel()
		t.Fatalf("newPlacement(%q): %v", args, err)
	}
	stop = sync.OnceFunc(func() {
		cancel()
		place.drain()
	})
	t.Cleanup(stop)
	return place, inj, stop
}

// componentMux serves only the routes register adds.
func componentMux(register func(mux *http.ServeMux)) *http.ServeMux {
	mux := http.NewServeMux()
	register(mux)
	return mux
}

func get(t *testing.T, mux *http.ServeMux, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read %s body: %v", path, err)
	}
	return res, string(body)
}

func TestHealthz(t *testing.T) {
	res, body := get(t, testMux(t), "/healthz")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: status %d body %q", res.StatusCode, body)
	}
}

func TestReadyzHealthy(t *testing.T) {
	res, body := get(t, testMux(t), "/readyz")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz: status %d body %q", res.StatusCode, body)
	}
}

// alwaysBreach is a rule that fires on the first evaluation: every
// registry has stream_events_total = 0 > -1.
func alwaysBreach() watch.Rule {
	return watch.Rule{
		Name:      "always-breach",
		Expr:      watch.Metric("stream_events_total"),
		Op:        watch.Above,
		Threshold: -1,
		For:       1,
	}
}

func TestReadyzReportsBreach(t *testing.T) {
	mux, dog := testMuxWatch(t, []watch.Rule{alwaysBreach()}, "")
	if fired := dog.Evaluate(time.Now()); len(fired) != 1 {
		t.Fatalf("expected 1 breach, got %d", len(fired))
	}
	res, body := get(t, mux, "/readyz")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz in breach: status %d, want 503", res.StatusCode)
	}
	if !strings.Contains(body, "always-breach") {
		t.Fatalf("readyz body should name the breaching rule:\n%s", body)
	}
	// Liveness is unaffected by SLO state.
	if res, _ := get(t, mux, "/healthz"); res.StatusCode != http.StatusOK {
		t.Fatalf("healthz during breach: status %d, want 200", res.StatusCode)
	}
}

func TestSLOStatusEndpoint(t *testing.T) {
	mux, dog := testMuxWatch(t, []watch.Rule{alwaysBreach()}, "")
	dog.Evaluate(time.Now())
	res, body := get(t, mux, "/slo")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("slo: status %d", res.StatusCode)
	}
	var rules []watch.RuleStatus
	if err := json.Unmarshal([]byte(body), &rules); err != nil {
		t.Fatalf("slo is not JSON: %v\n%s", err, body)
	}
	if len(rules) != 1 || rules[0].Name != "always-breach" || !rules[0].Breaching {
		t.Fatalf("slo rules = %+v, want always-breach breaching", rules)
	}
}

func TestDebugBundleNotFoundBeforeBreach(t *testing.T) {
	mux, _ := testMuxWatch(t, []watch.Rule{alwaysBreach()}, t.TempDir())
	res, _ := get(t, mux, "/debug/bundle")
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("bundle before breach: status %d, want 404", res.StatusCode)
	}
}

func TestDebugBundleServesLatestBundle(t *testing.T) {
	mux, dog := testMuxWatch(t, []watch.Rule{alwaysBreach()}, t.TempDir())
	if fired := dog.Evaluate(time.Now()); len(fired) != 1 || fired[0].BundlePath == "" {
		t.Fatalf("breach should write a bundle, got %+v", fired)
	}
	res, body := get(t, mux, "/debug/bundle")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("bundle after breach: status %d\n%s", res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("bundle Content-Type = %q", ct)
	}
	var bundle watch.Bundle
	if err := json.Unmarshal([]byte(body), &bundle); err != nil {
		t.Fatalf("bundle is not JSON: %v\n%s", err, body)
	}
	if bundle.Breach.Rule != "always-breach" {
		t.Fatalf("bundle breach rule = %q, want always-breach", bundle.Breach.Rule)
	}
	if _, ok := bundle.Snapshot["stream_events_total"]; !ok || bundle.Goroutine == "" {
		t.Fatalf("bundle incomplete: snapshot %v, goroutine %d bytes",
			bundle.Snapshot, len(bundle.Goroutine))
	}
}

func TestFaultsEndpointNoInjector(t *testing.T) {
	res, body := get(t, testMux(t), "/faults")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("faults: status %d", res.StatusCode)
	}
	var fs faultsStatus
	if err := json.Unmarshal([]byte(body), &fs); err != nil {
		t.Fatalf("faults is not JSON: %v\n%s", err, body)
	}
	if fs.Profile != "none" {
		t.Fatalf("profile = %q, want none (no injector wired)", fs.Profile)
	}
	if len(fs.Links) != 2 {
		t.Fatalf("links = %d, want 2", len(fs.Links))
	}
	for _, l := range fs.Links {
		if l.State != "closed" {
			t.Fatalf("link %d breaker = %q, want closed", l.Link, l.State)
		}
	}
	if fs.Degraded || fs.DroppedEvents != 0 {
		t.Fatalf("fresh pipeline reports degraded=%v dropped=%d", fs.Degraded, fs.DroppedEvents)
	}
}

func TestStatusDecodes(t *testing.T) {
	res, body := get(t, testMux(t), "/cluster")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cluster: %d", res.StatusCode)
	}
	var st struct {
		Candidates int `json:"candidates"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("cluster is not JSON: %v\n%s", err, body)
	}
	if st.Candidates != 2 {
		t.Fatalf("candidates = %d, want 2 (no rounds folded)", st.Candidates)
	}
}

func TestMetricsListsPipelineCounters(t *testing.T) {
	res, body := get(t, testMux(t), "/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics is not JSON: %v\n%s", err, body)
	}
	if _, ok := snap["stream_events_total"]; !ok {
		t.Fatalf("metrics missing stream_events_total:\n%s", body)
	}
}

func TestEvidenceConflictsBeforeFirstRound(t *testing.T) {
	res, _ := get(t, testMux(t), "/evidence")
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("evidence with no rounds: status %d, want %d", res.StatusCode, http.StatusConflict)
	}
}

func TestTraceChromeFormat(t *testing.T) {
	mux := testMux(t)
	for _, path := range []string{"/trace", "/trace?format=chrome"} {
		res, body := get(t, mux, path)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, res.StatusCode)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s is not JSON: %v\n%s", path, err, body)
		}
		found := false
		for _, ev := range doc.TraceEvents {
			if ev.Name == "test.root" && ev.Ph == "X" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s missing test.root X event:\n%s", path, body)
		}
	}
}

func TestTraceJSONFormat(t *testing.T) {
	res, body := get(t, testMux(t), "/trace?format=json")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("trace json: status %d", res.StatusCode)
	}
	var doc struct {
		Spans []struct {
			Name  string `json:"name"`
			Start string `json:"start"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace json: %v\n%s", err, body)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "test.root" {
		t.Fatalf("trace json spans = %+v, want one test.root", doc.Spans)
	}
	if _, err := time.Parse(time.RFC3339Nano, doc.Spans[0].Start); err != nil {
		t.Fatalf("trace json start timestamp: %v", err)
	}
}

func TestTraceBadFormat(t *testing.T) {
	res, _ := get(t, testMux(t), "/trace?format=bogus")
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace bogus format: status %d, want %d", res.StatusCode, http.StatusBadRequest)
	}
}

func TestPprofMounted(t *testing.T) {
	mux := testMux(t)
	res, body := get(t, mux, "/debug/pprof/")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d", res.StatusCode)
	}
	res, _ = get(t, mux, "/debug/pprof/cmdline")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", res.StatusCode)
	}
	res, _ = get(t, mux, "/debug/pprof/symbol")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("pprof symbol: status %d", res.StatusCode)
	}
}

// testProbeView builds a live prober over a small converged world, the
// way main does, optionally afflicted by the probe-storm fault profile,
// and returns it with the SAV ground truth it probes. Every other AS is
// a campaign source. When reg is non-nil the prober is instrumented
// into it.
func testProbeView(t *testing.T, reg *metrics.Registry, storm bool) (*probeView, probe.GroundTruth) {
	t.Helper()
	p := topo.DefaultGenParams(7)
	p.NumASes = 200
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := peering.New(g, peering.Options{EngineParams: bgp.DefaultParams(7)})
	if err != nil {
		t.Fatal(err)
	}
	anns := make([]bgp.Announcement, plat.NumLinks())
	for i := range anns {
		anns[i] = bgp.Announcement{Link: bgp.LinkID(i)}
	}
	out, err := plat.Propagate(bgp.Config{Anns: anns})
	if err != nil {
		t.Fatal(err)
	}
	truth := probe.RandomGroundTruth(g.NumASes(), 0.4, 0.5, 7)
	simnet, err := probe.NewSimNet(out, truth, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := probe.Config{
		Net:         simnet,
		TargetLinks: out.CatchmentVector(),
		LinkNames:   plat.LinkNames(),
		PerKind:     2,
	}
	if storm {
		prof, err := fault.ProfileByName("probe-storm")
		if err != nil {
			t.Fatal(err)
		}
		prof.ProbeLatency = 0 // latency is wall-clock sleep; keep the test fast
		cfg.Fault = fault.New(prof, 7, plat.NumLinks())
	}
	pr, err := probe.NewProber(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		pr.Instrument(reg)
	}
	var sources []int
	for as := 0; as < g.NumASes(); as += 2 {
		sources = append(sources, as)
	}
	return newProbeViewOf(pr, out.CatchmentVector(), sources), truth
}

func getProbeStatus(t *testing.T, mux *http.ServeMux) probeStatus {
	t.Helper()
	res, body := get(t, mux, "/probe")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("probe: status %d\n%s", res.StatusCode, body)
	}
	var ps probeStatus
	if err := json.Unmarshal([]byte(body), &ps); err != nil {
		t.Fatalf("probe is not JSON: %v\n%s", err, body)
	}
	return ps
}

func TestProbeEndpointNoProber(t *testing.T) {
	res, body := get(t, testMux(t), "/probe")
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("probe with no prober: status %d, want 404\n%s", res.StatusCode, body)
	}
}

func TestProbeEndpointReportsScanAndAudit(t *testing.T) {
	reg := metrics.NewRegistry()
	pv, _ := testProbeView(t, reg, false)
	mux := componentMux(pv.routes)
	for i := 0; i < 2; i++ {
		pv.prober.Round(nil)
	}
	ps := getProbeStatus(t, mux)
	if ps.Rounds != 2 || ps.Targets == 0 || ps.Sent == 0 {
		t.Fatalf("probe status after 2 rounds: %+v", ps)
	}
	if ps.Coverage != 1 {
		t.Fatalf("unbounded fault-free rounds should cover every target, got %.3f", ps.Coverage)
	}
	if ps.Lost != 0 || ps.Discarded != 0 {
		t.Fatalf("fault-free scan lost %d / discarded %d probes", ps.Lost, ps.Discarded)
	}
	// The probe channel measures the same ingress links propagation
	// derived: full agreement, zero conflicts.
	if ps.Audit.Agree == 0 || ps.Audit.Conflict != 0 || ps.Audit.ProbeOnly != 0 {
		t.Fatalf("channel audit = %+v, want agreement without conflicts", ps.Audit)
	}
	if len(ps.Outbound) == 0 {
		t.Fatalf("no outbound verdicts after 2 rounds: %+v", ps)
	}
}

// TestProbeEndpointDegradedUnderStorm drives the fault-injected path:
// under probe-storm, /probe must report the losses and the explicit
// low-confidence degradation, and the probe-loss-rate SLO rule (wired
// exactly as in main) must breach.
func TestProbeEndpointDegradedUnderStorm(t *testing.T) {
	reg := metrics.NewRegistry()
	pv, _ := testProbeView(t, reg, true)
	db := tsdb.New(tsdb.Options{Registry: reg})
	dog := watch.New(watch.Config{
		Registry: reg,
		DB:       db,
		Rules: []watch.Rule{{
			Name: "probe-loss-rate",
			Expr: watch.Fraction(
				watch.Counter{Family: "probe_lost_total"},
				watch.Counter{Family: "probe_sent_total"},
				time.Minute),
			Op:        watch.Above,
			Threshold: 0.5,
			For:       1,
		}},
	})
	mux := componentMux(func(mux *http.ServeMux) {
		pv.routes(mux)
		sloRoutes(mux, dog, func() (bool, int64) { return false, 0 })
	})
	// A scrape after each round: the rule reads the second round's loss.
	now := time.Now()
	for i := 0; i < 2; i++ {
		pv.prober.Round(nil)
		db.ScrapeOnce(now.Add(time.Duration(i) * time.Second))
	}
	ps := getProbeStatus(t, mux)
	if ps.Lost == 0 || float64(ps.Lost)/float64(ps.Sent) < 0.7 {
		t.Fatalf("storm lost %d/%d probes, want ~85%%", ps.Lost, ps.Sent)
	}
	if ps.LowConfidence == 0 {
		t.Fatalf("storm produced no low-confidence verdicts: %+v", ps)
	}
	if fired := dog.Evaluate(now.Add(time.Second)); len(fired) != 1 || fired[0].Rule != "probe-loss-rate" {
		t.Fatalf("probe-loss-rate should breach under the storm, fired %+v", fired)
	}
	res, body := get(t, mux, "/slo")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, "probe-loss-rate") {
		t.Fatalf("slo should list probe-loss-rate: status %d\n%s", res.StatusCode, body)
	}
}

// TestProbeScanRecordsConfidentSignals drives probeView.scan, the path
// that promotes confident probe verdicts into the ledger and publishes
// the re-measurement hints, fault-free and under probe-storm. The digest
// covers every recorded probe event and the /probe payload, so any
// change to what the probe channel records or reports shows up here.
func TestProbeScanRecordsConfidentSignals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		storm  bool
		digest uint64
	}{
		{"fault-free", false, 0xae13eae4e072f5ef},
		{"probe-storm", true, 0x4fceffcf3b2e849},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pv, truth := testProbeView(t, nil, tc.storm)
			led := provenance.New(provenance.Options{})
			for i := 0; i < 4; i++ {
				pv.scan(led)
			}
			h := fnv.New64a()
			last := map[int]string{}
			recorded := 0
			for _, ev := range led.Export().Events {
				p := ev.Probe
				if p == nil {
					continue
				}
				recorded++
				want := "can_spoof"
				if truth.OutboundSAV[p.AS] {
					want = "cannot_spoof"
				}
				if p.Signal != want {
					t.Fatalf("AS %d recorded %q, truth %q", p.AS, p.Signal, want)
				}
				if last[p.AS] == p.Signal {
					t.Fatalf("AS %d: %q recorded twice in a row", p.AS, p.Signal)
				}
				last[p.AS] = p.Signal
				b, err := json.Marshal(p)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
			if recorded == 0 {
				t.Fatal("scan recorded no probe events")
			}
			mux := componentMux(pv.routes)
			ps := getProbeStatus(t, mux)
			var hints []int
			for _, as := range ps.Audit.ConflictASes {
				if src, ok := pv.srcOf[as]; ok {
					hints = append(hints, src)
				}
			}
			if got := pv.hints(); !slices.Equal(got, hints) {
				t.Fatalf("hints = %v, want the audit's conflicts as sources %v", got, hints)
			}
			_, body := get(t, mux, "/probe")
			h.Write([]byte(body))
			if got := h.Sum64(); got != tc.digest {
				t.Fatalf("%d probe events + /probe digest %#x, want %#x", recorded, got, tc.digest)
			}
		})
	}
}

func TestLogLevelParsing(t *testing.T) {
	for _, lv := range []string{"debug", "info", "warn", "error"} {
		if _, err := newLogger(lv); err != nil {
			t.Fatalf("newLogger(%q): %v", lv, err)
		}
	}
	if _, err := newLogger("verbose"); err == nil {
		t.Fatal("newLogger(verbose) should fail")
	}
}
