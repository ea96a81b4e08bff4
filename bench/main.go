// Command bench is the repository's benchmark: five fixed-work
// workloads over the traceback loop, gated on process CPU time and exact
// counts, plus a traced mode that turns timings taken around each
// package's public functions into a per-layer budget. README.md in this
// directory defines every metric; BENCHMARK.json at the repository root
// is the contract a driver runs it by.
//
//	go run ./bench -workload localize-direct -seed 1
//	go run ./bench -workload campaign-truth -seed 1 -trace 1
//	go run ./bench -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// metricDef names a metric and its unit; the two tables below are what
// the command emits and what BENCHMARK.json lists (bench_test.go holds
// the two together).
type metricDef struct {
	name, unit string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	bound float64
}

var endToEndDefs = []metricDef{
	{"cpu_ms_per_op", "ms", 0.25},
	{"alloc_kb_per_op", "KB", 0.05},
	{"mallocs_per_op", "count", 0.05},
	{"retained_mb", "MB", 0.05},
	{"deploys_per_op", "count", 0.02},
	{"setup_s", "s", 0.25},
}

var perLayerDefs = []metricDef{
	{name: "amp.pkt_cpu_us", unit: "us"},
	{name: "amp.mallocs_per_pkt", unit: "count"},
	{name: "amp.delivered_frac", unit: "frac"},
	{name: "amp.border_dropped", unit: "count"},
	{name: "amp.malformed", unit: "count"},
	{name: "amp.set_catchments_us_p50", unit: "us"},
	{name: "amp.marshal_ns", unit: "ns"},
	{name: "amp.unmarshal_ns", unit: "ns"},
	{name: "stream.new_ms", unit: "ms"},
	{name: "stream.ingest_ns_per_event", unit: "ns"},
	{name: "stream.round_wait_ms_p50", unit: "ms"},
	{name: "stream.step_us_p50", unit: "us"},
	{name: "stream.close_ms", unit: "ms"},
	{name: "stream.batches_per_op", unit: "count"},
	{name: "stream.settle_excluded", unit: "count"},
	{name: "stream.dropped", unit: "count"},
	{name: "sched.greedy_us_p50", unit: "us"},
	{name: "cluster.refine_us_p50", unit: "us"},
	{name: "cluster.final_partition_ms", unit: "ms"},
	{name: "spoof.addround_us_p50", unit: "us"},
	{name: "shard.new_cluster_ms", unit: "ms"},
	{name: "shard.ingest_ns_per_event", unit: "ns"},
	{name: "shard.quiesce_ms_p50", unit: "ms"},
	{name: "shard.step_us_p50", unit: "us"},
	{name: "shard.ring_owner_ns", unit: "ns"},
	{name: "shard.steps_deferred", unit: "count"},
	{name: "shard.steps_discarded", unit: "count"},
	{name: "peering.deploy_us_p50", unit: "us"},
	{name: "peering.cache_hit_frac", unit: "frac"},
	{name: "peering.sim_min_per_op", unit: "min"},
	{name: "bgp.full_ms_p50", unit: "ms"},
	{name: "bgp.delta_us_p50", unit: "us"},
	{name: "bgp.delta_fallback_frac", unit: "frac"},
	{name: "bgp.delta_seeds_p50", unit: "count"},
	{name: "bgp.mallocs_per_propagate", unit: "count"},
	{name: "core.build_world_ms", unit: "ms"},
	{name: "core.plan_ms", unit: "ms"},
	{name: "core.deploy_phase_ms", unit: "ms"},
	{name: "core.measure_phase_ms", unit: "ms"},
	{name: "measure.outcome_ms_p50", unit: "ms"},
	{name: "measure.mallocs_per_config", unit: "count"},
	{name: "measure.impute_ms", unit: "ms"},
	{name: "mrt.share_of_measure", unit: "frac"},
	{name: "topo.generate_ms", unit: "ms"},
	{name: "topo.ases", unit: "count"},
	{name: "topo.edges", unit: "count"},
	{name: "harness.op_wall_ms_p50", unit: "ms"},
	{name: "harness.op_wall_ms_p90", unit: "ms"},
	{name: "harness.work_per_cpu_s", unit: "1/s"},
	{name: "harness.cpu_ms_iqr_frac", unit: "frac"},
	{name: "harness.peak_rss_mb", unit: "MB"},
	{name: "harness.gc_cycles_per_op", unit: "count"},
	{name: "harness.steal_frac", unit: "frac"},
	{name: "harness.trace_overhead_frac", unit: "frac"},
	{name: "budget.amp_frac", unit: "frac"},
	{name: "budget.stream_frac", unit: "frac"},
	{name: "budget.shard_frac", unit: "frac"},
	{name: "budget.core_frac", unit: "frac"},
	{name: "budget.peering_frac", unit: "frac"},
	{name: "budget.measure_frac", unit: "frac"},
	{name: "budget.cluster_frac", unit: "frac"},
	{name: "budget.harness_frac", unit: "frac"},
}

// jsonMetric and jsonResult are the last line of standard output.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine selects the metrics the mode reports and renders the JSON
// line. A missing metric is a harness bug.
func resultLine(res *runResult, defs []metricDef) (string, error) {
	out := jsonResult{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		mt, ok := res.metrics.get(d.name)
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if mt.Unit != d.unit {
			return "", fmt.Errorf("metric %s measured in %s, defined in %s", d.name, mt.Unit, d.unit)
		}
		out.Metrics[d.name] = jsonMetric{Value: mt.Value, Unit: mt.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// buildCommit is the VCS revision the binary was built from, when the
// toolchain stamped one (a driver's checkout is not a repository).
func buildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printReport writes the human-readable part: where and what was run,
// every metric measured, and in trace mode the self-time table.
func printReport(w io.Writer, cfg runConfig, seconds int, res *runResult) {
	fmt.Fprintf(w, "workload   %s\n", cfg.def.name)
	fmt.Fprintf(w, "seed       %d (catalogue %d)\n", cfg.seed, cfg.catalogue)
	fmt.Fprintf(w, "ops        %d timed of %s for -seconds %d, %d warm-up\n", res.ops, cfg.def.workUnit, seconds, res.warm)
	fmt.Fprintf(w, "commit     %s\n", buildCommit())
	fmt.Fprintf(w, "go         %s GOMAXPROCS=%d nproc=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "kernel     %s %s/%s\n", kernelRelease(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	if len(res.counts) > 0 {
		c := res.counts[0]
		fmt.Fprintf(w, "per op     %d deploys, %d %s, digest %#x\n", c.deploys, c.work, cfg.def.workUnit, uint64(c.sum))
	}
	// Per-op figures, ungated: wall adds scheduler noise to CPU, and a
	// stretch of slow ops shows when the machine was disturbed.
	fmt.Fprintf(w, "cpu ms     %.1f\n", res.cpuMS)
	fmt.Fprintf(w, "wall ms    %.1f\n", res.wallMS)
	for _, mt := range res.metrics.list {
		fmt.Fprintf(w, "metric %-32s %16.6f %s\n", mt.Name, mt.Value, mt.Unit)
	}
	if len(res.self) == 0 {
		return
	}
	fmt.Fprintf(w, "\nself time per op over %d traced ops (span minus its child spans)\n", res.tracedOps)
	fmt.Fprintf(w, "%-26s %9s %12s %12s\n", "span", "calls/op", "cpu ms/op", "wall ms/op")
	n := float64(res.tracedOps)
	self := append([]selfTime(nil), res.self...)
	sort.Slice(self, func(i, j int) bool { return self[i].CPUNS > self[j].CPUNS })
	var cpu, wall float64
	for _, st := range self {
		fmt.Fprintf(w, "%-26s %9.1f %12.3f %12.3f\n", st.Name, float64(st.Calls)/n, float64(st.CPUNS)/n/1e6, float64(st.WallNS)/n/1e6)
		cpu += float64(st.CPUNS) / n / 1e6
		wall += float64(st.WallNS) / n / 1e6
	}
	fmt.Fprintf(w, "%-26s %9s %12.3f %12.3f\n", "sum", "", cpu, wall)
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "drives the generated inputs: victims, packet interleaving, attack order, vantage placement and measurement noise")
	seconds := fs.Int("seconds", 10, "sizes the timed window: the op count is this many seconds' worth at the workload's fixed rate")
	ops := fs.Int("ops", 0, "timed ops, overriding -seconds")
	trace := fs.Int("trace", 0, "1 adds the traced window and the layer probes and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "where -trace 1 writes its spans (default bench/out/trace-<workload>.json)")
	catalogue := fs.Uint64("catalogue", 1, "selects who attacks; use another value for held-out claims")
	aa := fs.Int("aa", 0, "run this many runs per workload in each of two alternating sets and report the noise floor")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aa > 0 {
		return runAA(*aa, *seconds, stdout, stderr)
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q; known:", *name)
		for _, d := range workloadDefs {
			fmt.Fprintf(stderr, " %s", d.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		def: def, sc: fullScale, seed: *seed, catalogue: *catalogue,
		ops: def.opsFor(*seconds), start: processStart,
		trace: *trace == 1, log: stdout,
	}
	if *ops > 0 {
		cfg.ops = *ops
	}
	if cfg.trace {
		cfg.traceOut = *traceOut
		if cfg.traceOut == "" {
			cfg.traceOut = filepath.Join("bench", "out", "trace-"+def.name+".json")
		}
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printReport(stdout, cfg, *seconds, res)
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
	}
	line, err := resultLine(res, defs)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if res.failed > 0 {
		return 1
	}
	return 0
}
