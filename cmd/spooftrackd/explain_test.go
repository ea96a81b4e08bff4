package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/provenance"
)

// testLedger builds a deterministic synthetic run (fixed clock, fixed
// events) so the /explain payloads can be golden-filed: two configs
// over three sources, a retry and a degrade, a quarantine flap, one
// probe verdict, and a campaign verdict the rows reproduce.
func testLedger() *provenance.Ledger {
	n := 0
	base := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	led := provenance.New(provenance.Options{Clock: func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Second)
	}})
	led.RecordMeta(provenance.MetaEvent{Component: "campaign", NumSources: 3, NumConfigs: 2, NumLinks: 2, UseTruth: true})
	led.RecordRetry(provenance.RetryEvent{Config: 0, Phase: "deploy", Attempt: 1, Error: "mux flap"})
	led.RecordDeploy(provenance.DeployEvent{Config: 0, Key: "k0", Attempts: 2, Phase: "isolation"})
	led.RecordRowShared(provenance.RowEvent{Config: 0, Catchment: []bgp.LinkID{0, 0, 1}})
	led.RecordDegrade(provenance.DegradeEvent{Config: 1, Phase: "measure", Error: "gone"})
	led.RecordRowShared(provenance.RowEvent{Config: 1, Catchment: []bgp.LinkID{-1, -1, -1}, Incomplete: true})
	led.RecordQuarantine(provenance.QuarantineEvent{Link: 1, From: "closed", To: "open"})
	led.RecordProbe(provenance.ProbeEvent{AS: 7, Source: 2, Link: 1, Signal: "can_spoof", Confidence: 0.97, Round: 1})
	led.RecordVerdict(provenance.VerdictEvent{Origin: "campaign", Assign: []int32{0, 0, 1}, Clusters: 2})
	return led
}

// explainMux is a mux with only the provenance surface live.
func explainMux(led *provenance.Ledger) *http.ServeMux {
	return componentMux(func(mux *http.ServeMux) { provenanceRoutes(mux, led) })
}

// goldenBody compares body against testdata/<name>, rewriting the file
// when UPDATE_GOLDEN is set.
func goldenBody(t *testing.T, name, body string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if body != string(want) {
		t.Fatalf("%s differs from golden:\n--- got ---\n%s\n--- want ---\n%s", name, body, want)
	}
}

func TestExplainDisabled(t *testing.T) {
	mux := explainMux(nil)
	for _, path := range []string{"/explain", "/explain/0"} {
		res, body := get(t, mux, path)
		if res.StatusCode != http.StatusNotFound || !strings.Contains(body, "-ledger=false") {
			t.Fatalf("%s with nil ledger: status %d body %q", path, res.StatusCode, body)
		}
	}
}

func TestExplainList(t *testing.T) {
	mux := explainMux(testLedger())
	res, body := get(t, mux, "/explain")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/explain: status %d body %q", res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/explain content type %q", ct)
	}
	var payload struct {
		Events   int                         `json:"events"`
		Verdicts []provenance.VerdictSummary `json:"verdicts"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Events != 9 || len(payload.Verdicts) != 1 || !payload.Verdicts[0].Final {
		t.Fatalf("/explain payload = %+v", payload)
	}
	goldenBody(t, "explain_list.golden", body)
}

func TestExplainFormats(t *testing.T) {
	mux := explainMux(testLedger())

	res, body := get(t, mux, "/explain?format=dot")
	if res.StatusCode != http.StatusOK || !strings.HasPrefix(body, "digraph provenance") {
		t.Fatalf("dot format: status %d body %.60q", res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/vnd.graphviz" {
		t.Fatalf("dot content type %q", ct)
	}

	res, body = get(t, mux, "/explain?format=ledger")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ledger format: status %d", res.StatusCode)
	}
	exp, err := provenance.ParseExport(strings.NewReader(body))
	if err != nil {
		t.Fatalf("ledger format is not a parseable export: %v", err)
	}
	if len(exp.Events) != 9 {
		t.Fatalf("ledger format exported %d events, want 9", len(exp.Events))
	}

	res, body = get(t, mux, "/explain?format=bogus")
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d body %q", res.StatusCode, body)
	}
}

func TestExplainCluster(t *testing.T) {
	mux := explainMux(testLedger())
	res, body := get(t, mux, "/explain/0")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/explain/0: status %d body %q", res.StatusCode, body)
	}
	var ex provenance.Explanation
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatal(err)
	}
	// The chain's leaves must account for every configuration that ran
	// and every probe round that contributed evidence.
	if len(ex.Configs) != 2 {
		t.Fatalf("chain covers %d configs, want 2: %+v", len(ex.Configs), ex.Configs)
	}
	if len(ex.Probes) != 1 || ex.Probes[0].Round != 1 {
		t.Fatalf("chain probes = %+v", ex.Probes)
	}
	if !ex.Replay.Reproduced {
		t.Fatalf("embedded replay check failed: %+v", ex.Replay)
	}
	goldenBody(t, "explain_cluster0.golden", body)
}

func TestExplainClusterErrors(t *testing.T) {
	mux := explainMux(testLedger())
	if res, _ := get(t, mux, "/explain/banana"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("/explain/banana: status %d", res.StatusCode)
	}
	if res, _ := get(t, mux, "/explain/99"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("/explain/99: status %d", res.StatusCode)
	}
}
