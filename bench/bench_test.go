package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// smoke runs one small-scale op of a workload in process.
func smoke(t *testing.T, def workloadDef, trace bool) *runResult {
	t.Helper()
	res, err := execute(runConfig{
		def: def, sc: smallScale, seed: 1, catalogue: 1, ops: 1,
		start: time.Now(), trace: trace,
	})
	if err != nil {
		t.Fatalf("%s: %v", def.name, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", def.name, res.failed, res.attempted, res.failures)
	}
	return res
}

// emitted checks that the result line carries every defined metric once,
// with its unit.
func emitted(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	line, err := resultLine(res, defs)
	if err != nil {
		t.Fatal(err)
	}
	var out jsonResult
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || len(out.Metrics) != len(defs) {
		t.Fatalf("result line: correct=%v with %d metrics, want %d", out.Correct, len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		if got := out.Metrics[d.name].Unit; got != d.unit {
			t.Errorf("%s: unit %q, want %q", d.name, got, d.unit)
		}
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json and the command's metric
// and workload tables together.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(f.Workloads), len(workloadDefs))
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if d := workloadDefs[i]; w.Name != d.name || w.Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, d.name, d.why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	match := func(kind string, got []benchmarkMetric, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the command", len(got), kind, len(want))
		}
		for i, m := range got {
			unique(m.Name)
			if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s] bound %v, the command %s [%s] bound %v",
					kind, i, m.Name, m.Unit, m.Bound, d.name, d.unit, d.bound)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	match("end-to-end", f.EndToEnd, endToEndDefs)
	match("per-layer", f.PerLayer, perLayerDefs)
	for _, m := range f.EndToEnd {
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better %q, bound %v", m.Name, m.Better, m.Bound)
		}
	}
}

// TestSmokeWorkloads runs every workload twice at small scale: each run
// must pass its checks and emit every end-to-end metric, and what an op
// deployed and accounted must be identical between the two.
func TestSmokeWorkloads(t *testing.T) {
	for _, def := range workloadDefs {
		def := def
		t.Run(def.name, func(t *testing.T) {
			first := smoke(t, def, false)
			emitted(t, first, endToEndDefs)
			second := smoke(t, def, false)
			a, b := first.counts[0], second.counts[0]
			if a != b {
				t.Errorf("two runs disagree: %+v then %+v", a, b)
			}
			if a.deploys == 0 || a.work == 0 {
				t.Errorf("empty op: %+v", a)
			}
		})
	}
}

// TestSmokeTraced runs one traced run, which carries the layer probes,
// and checks that every per-layer metric comes out of it.
func TestSmokeTraced(t *testing.T) {
	def, _ := findWorkload("localize-direct")
	res := smoke(t, def, true)
	emitted(t, res, perLayerDefs)
	if len(res.self) == 0 || res.tracedOps == 0 {
		t.Fatal("traced run recorded no spans")
	}
	var stream int64
	for _, st := range res.self {
		if layerOf(st.Name) == "stream" {
			stream += st.CPUNS + st.WallNS
		}
	}
	if stream == 0 {
		t.Error("no self time under the stream layer on localize-direct")
	}
}

// TestSharedAttacksDeployAlike pins the relation the workloads are built
// on: the attacks localize-direct and localize-sharded share make the
// single pipeline and the shard cluster deploy the same configurations,
// although the rounds differ in size.
func TestSharedAttacksDeployAlike(t *testing.T) {
	d, err := openDirect(smallScale, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := openSharded(smallScale, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := d.op(nil, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := s.op(nil, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	da := dr.(*localizeResult).attacks[0]
	sa := sr.(*localizeResult).attacks[0]
	if !equalInts(da.want, sa.want) {
		t.Fatalf("first attacks differ: %v and %v", da.want, sa.want)
	}
	if !equalInts(da.deployed, sa.deployed) {
		t.Errorf("direct deployed %v, sharded %v", da.deployed, sa.deployed)
	}
}

// TestQuartilesMatchPython pins the spread estimator to the values
// Python's statistics.quantiles(n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 3,1,2: %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
