package provenance

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
)

// fixedClock returns a deterministic clock for golden-file tests: the
// epoch plus one second per call.
func fixedClock() func() time.Time {
	n := 0
	base := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Second)
	}
}

func TestNilLedgerNoOps(t *testing.T) {
	var l *Ledger
	if l.Enabled() {
		t.Fatal("nil ledger reports enabled")
	}
	// Every Record* must be a safe no-op on nil.
	l.RecordMeta(MetaEvent{Component: "stream"})
	l.RecordDeploy(DeployEvent{Config: 1})
	l.RecordRetry(RetryEvent{Config: 1})
	l.RecordDegrade(DegradeEvent{Config: 1})
	l.RecordRowShared(RowEvent{Config: 1})
	l.RecordQuarantine(QuarantineEvent{Link: 0})
	l.RecordProbe(ProbeEvent{AS: 3})
	l.RecordRound(RoundEvent{Round: 1})
	l.RecordReconfig(ReconfigEvent{Round: 1})
	l.RecordVerdict(VerdictEvent{Origin: "stream"})
	l.Instrument(metrics.NewRegistry())
	if l.Len() != 0 {
		t.Fatalf("nil ledger Len = %d", l.Len())
	}
	e := l.Export()
	if len(e.Events) != 0 {
		t.Fatalf("nil ledger exported %d events", len(e.Events))
	}
}

func TestConcurrentAppendExportOrdering(t *testing.T) {
	l := New(Options{Shards: 4})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.RecordRetry(RetryEvent{Config: w, Attempt: i})
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", l.Len(), workers*per)
	}
	e := l.Export()
	if len(e.Events) != workers*per {
		t.Fatalf("exported %d events, want %d", len(e.Events), workers*per)
	}
	for i, ev := range e.Events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: export not in global sequence order", i, ev.Seq)
		}
		if ev.Kind != KindRetry || ev.Retry == nil {
			t.Fatalf("event %d: kind %q payload %+v", i, ev.Kind, ev)
		}
	}
}

func TestRecordCopiesSlices(t *testing.T) {
	l := New(Options{})
	vol := []float64{1, 2}
	l.RecordRound(RoundEvent{Round: 1, Volumes: vol})
	cand := []int{1, 2}
	assign := []int32{0, 1, 0}
	l.RecordVerdict(VerdictEvent{Origin: "stream", Candidates: cand, Assign: assign})
	vol[0], cand[0], assign[0] = 9, 9, 9
	e := l.Export()
	if e.Events[0].Round.Volumes[0] != 1 {
		t.Fatal("RecordRound aliased the caller's volume slice")
	}
	if e.Events[1].Verdict.Candidates[0] != 1 || e.Events[1].Verdict.Assign[0] != 0 {
		t.Fatal("RecordVerdict aliased the caller's slices")
	}
}

func TestInstrumentCountsByKind(t *testing.T) {
	reg := metrics.NewRegistry()
	l := New(Options{})
	l.Instrument(reg)
	l.RecordRound(RoundEvent{Round: 1})
	l.RecordRound(RoundEvent{Round: 2})
	l.RecordVerdict(VerdictEvent{Origin: "stream"})
	vec := reg.CounterVec("provenance_events_total", "kind")
	if got := vec.With(string(KindRound)).Value(); got != 2 {
		t.Fatalf("round counter = %d, want 2", got)
	}
	if got := vec.With(string(KindVerdict)).Value(); got != 1 {
		t.Fatalf("verdict counter = %d, want 1", got)
	}
}

// testExport builds a small synthetic run: 2 configs over 3 sources,
// one retry, one degrade on config 1, a quarantine flap, one probe
// verdict, one round, one reconfig, and a campaign-style final verdict.
// The verdict is the one campaignVerdict derives from the rows, so
// Replay reproduces it.
func testLedger() *Ledger {
	l := New(Options{Clock: fixedClock()})
	l.RecordMeta(MetaEvent{Component: "campaign", NumSources: 3, NumConfigs: 2, NumLinks: 2, UseTruth: true})
	l.RecordRetry(RetryEvent{Config: 0, Phase: "deploy", Attempt: 1, Error: "mux flap"})
	l.RecordDeploy(DeployEvent{Config: 0, Key: "k0", Attempts: 2, Phase: "isolation"})
	l.RecordRowShared(RowEvent{Config: 0, Catchment: []bgp.LinkID{0, 0, 1}})
	l.RecordDegrade(DegradeEvent{Config: 1, Phase: "measure", Error: "gone"})
	l.RecordRowShared(RowEvent{Config: 1, Catchment: []bgp.LinkID{-1, -1, -1}, Incomplete: true})
	l.RecordQuarantine(QuarantineEvent{Link: 1, From: "closed", To: "open"})
	l.RecordProbe(ProbeEvent{AS: 7, Source: 2, Link: 1, Signal: "can_spoof", Confidence: 0.97, Round: 1})
	l.RecordVerdict(VerdictEvent{Origin: "campaign", Assign: []int32{0, 0, 1}, Clusters: 2})
	return l
}

func TestExportJSONRoundTrip(t *testing.T) {
	e := testLedger().Export()
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseExport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Events, back.Events) {
		t.Fatalf("round trip changed events:\n  out: %+v\n  in:  %+v", e.Events, back.Events)
	}
}

// golden compares got against testdata/<name>, rewriting the file when
// -update is set via the UPDATE_GOLDEN env var.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestWriteDOTGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := testLedger().Export().WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cfg0", "cfg1", "quar", "probe", "verdict"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	golden(t, "ledger.dot", buf.Bytes())
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := testLedger().Export().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "ledger.json", buf.Bytes())
}

func TestVerdicts(t *testing.T) {
	e := testLedger().Export()
	vs := e.Verdicts()
	if len(vs) != 1 {
		t.Fatalf("Verdicts = %+v, want one entry", vs)
	}
	v := vs[0]
	if v.Origin != "campaign" || v.Clusters != 2 || !v.Final {
		t.Fatalf("verdict summary = %+v", v)
	}
	if got := (&Export{}).Verdicts(); len(got) != 0 {
		t.Fatalf("empty export Verdicts = %+v", got)
	}
}

func TestExplain(t *testing.T) {
	e := testLedger().Export()
	if _, err := e.Explain(-1); err == nil {
		t.Fatal("Explain(-1) succeeded")
	}
	if _, err := e.Explain(2); err == nil {
		t.Fatal("Explain(2) succeeded on a 2-cluster verdict")
	}
	if _, err := (&Export{}).Explain(0); err == nil {
		t.Fatal("Explain on an empty export succeeded")
	}

	ex, err := e.Explain(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ex.Members, []int{0, 1}) {
		t.Fatalf("cluster 0 members = %v, want [0 1]", ex.Members)
	}
	// Every configuration the ledger saw must have a chain entry.
	if len(ex.Configs) != 2 {
		t.Fatalf("configs = %+v, want chains for configs 0 and 1", ex.Configs)
	}
	c0, c1 := ex.Configs[0], ex.Configs[1]
	if c0.Config != 0 || !c0.Deployed || c0.Attempts != 2 || len(c0.Retries) != 1 || c0.Row == nil {
		t.Fatalf("config 0 chain = %+v", c0)
	}
	if !reflect.DeepEqual(c0.MemberLinks, []bgp.LinkID{0, 0}) {
		t.Fatalf("config 0 member links = %v", c0.MemberLinks)
	}
	if c1.Config != 1 || c1.Deployed || len(c1.Degraded) != 1 || c1.Row == nil || !c1.Row.Incomplete {
		t.Fatalf("config 1 chain = %+v", c1)
	}
	// Probe and quarantine evidence rides along; the probe targets
	// source 2 (cluster 1), so it is not a member probe of cluster 0.
	if len(ex.Probes) != 1 || len(ex.MemberProbes) != 0 || len(ex.Quarantines) != 1 {
		t.Fatalf("evidence = probes %+v member %v quarantines %+v", ex.Probes, ex.MemberProbes, ex.Quarantines)
	}
	// The embedded replay check must pass: the recorded verdict is the
	// refinement of the recorded rows.
	if !ex.Replay.Reproduced || ex.Replay.Error != "" {
		t.Fatalf("embedded replay failed: %+v", ex.Replay)
	}

	// Cluster 1 sees the probe as a member probe.
	ex1, err := e.Explain(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ex1.Members, []int{2}) || len(ex1.MemberProbes) != 1 {
		t.Fatalf("cluster 1 = members %v memberProbes %v", ex1.Members, ex1.MemberProbes)
	}
}

func TestReplayDetectsTamperedVerdict(t *testing.T) {
	l := New(Options{Clock: fixedClock()})
	l.RecordMeta(MetaEvent{Component: "campaign", NumSources: 3, NumConfigs: 1, NumLinks: 2})
	l.RecordRowShared(RowEvent{Config: 0, Catchment: []bgp.LinkID{0, 0, 1}})
	// A verdict the rows do not support: sources 0 and 2 together.
	l.RecordVerdict(VerdictEvent{Origin: "campaign", Assign: []int32{0, 1, 0}, Clusters: 2})
	res, err := Replay(l.Export())
	if err != nil {
		t.Fatal(err)
	}
	if res.Reproduced || len(res.Mismatches) == 0 {
		t.Fatalf("tampered verdict replayed clean: %+v", res)
	}
}

func TestReplayEmptyExport(t *testing.T) {
	if _, err := Replay(&Export{}); err == nil {
		t.Fatal("Replay of an empty export succeeded")
	}
}
