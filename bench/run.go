package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// opCounts are the exact, machine-independent results of one op.
type opCounts struct {
	// deploys is the number of configurations the op announced — the
	// paper's (and BGPeek-a-Boo's) cost unit, and for a real origin AS a
	// 70-minute slot each.
	deploys int
	// work is the op's size in the workload's own unit: packets tapped,
	// events accounted, configurations measured.
	work int64
	// sum digests what the op decided: the deployment sequences or the
	// catchment matrix.
	sum checksum
}

// workload is one benchmark workload, opened on generated inputs. Every
// op of an opened workload replays the same inputs, so the spread
// between ops is measurement noise and the counts repeat.
type workload interface {
	// op is the timed part. The result goes to check; an error fails the
	// op.
	op(tr *tracer, parent spanID) (any, error)
	// check verifies an op's result, untimed.
	check(result any) (opCounts, error)
	close()
}

// workloadDef describes a workload to the harness and to BENCHMARK.json.
type workloadDef struct {
	name string
	why  string
	// opsPer10s sizes the timed window: an op count is derived from the
	// requested seconds, never from a clock, so the work is fixed.
	opsPer10s int
	workUnit  string
	// exactWork says the work count must repeat exactly between ops (it
	// cannot where the kernel's delivery timing decides how many packets
	// a round holds beyond its minimum).
	exactWork bool
	open      func(sc scale, catalogue, seed uint64) (workload, error)
}

var workloadDefs = []workloadDef{
	{
		name:      "localize-loopback",
		why:       "the whole live loop over loopback UDP: amp border, honeypot and the kernel do ~95% of the work, stream little",
		opsPer10s: 24, workUnit: "packets", exactWork: true,
		open: func(sc scale, catalogue, seed uint64) (workload, error) { return openLoopback(sc, catalogue, seed) },
	},
	{
		name:      "localize-direct",
		why:       "botnet rounds of 50000 events fed straight into Pipeline.Ingest: stream ingest and flush do the work, amp none",
		opsPer10s: 20, workUnit: "events", exactWork: true,
		open: func(sc scale, catalogue, seed uint64) (workload, error) { return openDirect(sc, catalogue, seed) },
	},
	{
		name:      "localize-sharded",
		why:       "the same attacks in small rounds through a 4-shard cluster: controller step, evaluator, sched, cluster, spoof and table builds do the work, ingest little",
		opsPer10s: 32, workUnit: "events", exactWork: true,
		open: func(sc scale, catalogue, seed uint64) (workload, error) { return openSharded(sc, catalogue, seed) },
	},
	{
		name:      "campaign-measured",
		why:       "offline campaign through collect, MRT round-trip, infer and impute on a cold but enabled outcome cache: measure, mrt and core do ~90%, bgp ~10%",
		opsPer10s: 7, workUnit: "configs", exactWork: true,
		open: func(sc scale, _, seed uint64) (workload, error) { return openMeasured(sc, seed) },
	},
	{
		name:      "campaign-truth",
		why:       "offline campaign with true catchments on a 10000-AS graph: bgp delta propagation and the peering outcome cache do ~90%, measure none",
		opsPer10s: 7, workUnit: "configs", exactWork: true,
		open: func(sc scale, _, seed uint64) (workload, error) { return openTruth(sc, seed) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// opsFor turns a run length into a fixed op count.
func (d workloadDef) opsFor(seconds int) int {
	n := (d.opsPer10s*seconds + 5) / 10
	if n < 3 {
		n = 3
	}
	return n
}

// checkedOp runs one untimed, untraced op and its check.
func checkedOp(w workload) (any, error) {
	res, err := w.op(nil, noSpan)
	if err == nil {
		_, err = w.check(res)
	}
	return res, err
}

// setupReps is how often a run sets up: setup_s is the median, so one
// disturbed set-up does not decide it.
const setupReps = 3

// runConfig is one benchmark run.
type runConfig struct {
	def       workloadDef
	sc        scale
	seed      uint64
	catalogue uint64
	ops       int
	// start is when the first set-up began: process start for the
	// command, the call for in-process runs.
	start time.Time
	// trace adds the traced half of the window and the layer probes.
	trace    bool
	traceOut string
	log      io.Writer
}

// runResult is everything a run measured.
type runResult struct {
	metrics   *metricSet
	attempted int
	failed    int
	failures  []string
	// counts holds one entry per timed op that passed its check; cpuMS
	// and wallMS one per timed op of the untraced window.
	counts        []opCounts
	cpuMS, wallMS []float64
	ops           int
	warm          int
	self          []selfTime
	// tracedOps is how many ops the self times cover.
	tracedOps int
}

// window accumulates the timed ops of one pass.
type window struct {
	cpuMS, wallMS  []float64
	bytes, mallocs uint64
	gcs            uint32
	work           int64
	deploys        int
	attempted      int
	failed         int
	failures       []string
	counts         []opCounts
	last           any
}

// timedOp runs one op between exact CPU and allocator readings and
// checks it outside them.
func (win *window) timedOp(w workload, def workloadDef, tr *tracer, i int) {
	tr.beginOp(i)
	// Every op starts from the same heap: the previous result released
	// and collected, so how many collections fall inside an op depends
	// on what the op allocates and not on where the last one stopped.
	win.last = nil
	runtime.GC()
	m0 := readMem()
	t0 := time.Now()
	c0 := cpuTime()
	root := tr.start(noSpan, "harness.op")
	res, err := w.op(tr, root)
	tr.end(root)
	c1 := cpuTime()
	wall := time.Since(t0)
	m1 := readMem()

	win.attempted++
	win.cpuMS = append(win.cpuMS, ms(c1-c0))
	win.wallMS = append(win.wallMS, ms(wall))
	win.bytes += m1.bytes - m0.bytes
	win.mallocs += m1.mallocs - m0.mallocs
	win.gcs += m1.gcs - m0.gcs
	var oc opCounts
	if err == nil {
		oc, err = w.check(res)
	}
	if err == nil && len(win.counts) > 0 {
		// An op is identical work: what it decided must repeat.
		first := win.counts[0]
		switch {
		case oc.deploys != first.deploys || oc.sum != first.sum:
			err = fmt.Errorf("deployed %d configurations (digest %#x), the first op %d (%#x)",
				oc.deploys, uint64(oc.sum), first.deploys, uint64(first.sum))
		case def.exactWork && oc.work != first.work:
			err = fmt.Errorf("%d %s, the first op %d", oc.work, def.workUnit, first.work)
		}
	}
	if err != nil {
		win.failed++
		win.failures = append(win.failures, fmt.Sprintf("op %d: %v", i, err))
		return
	}
	win.counts = append(win.counts, oc)
	win.work += oc.work
	win.deploys += oc.deploys
	win.last = res
}

// execute performs one run: the workload's windows, then in trace mode
// the layer probes.
func execute(cfg runConfig) (*runResult, error) {
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		// The same fixed set whichever workload was named, so every
		// per-layer number is measured in every traced run — and on a
		// heap the named workload has left: its worlds are unreferenced
		// by now, and collected before the first probe.
		runtime.GC()
		if err := layerProbes(res.metrics, cfg.sc, cfg.catalogue, cfg.seed); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	res.metrics.set("harness.peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

// runWorkload sets the workload up, warms it, and runs the timed window
// and, in trace mode, the traced window.
func runWorkload(cfg runConfig) (*runResult, error) {
	logf := func(format string, args ...any) {
		if cfg.log != nil {
			fmt.Fprintf(cfg.log, format, args...)
		}
	}
	steal0 := readCPUJiffies()

	// Set up several times; each set-up opens the workload on its
	// generated inputs and runs one warm-up op, so lazily built state
	// (pools, socket buffers, the heap's size) is in place. The last
	// instance is the one measured.
	var w workload
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		if r == 0 {
			t0 = cfg.start
		}
		var err error
		if w, err = cfg.def.open(cfg.sc, cfg.catalogue, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if _, err := checkedOp(w); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	// About a tenth more warm-up on the measured instance, untimed.
	warm := cfg.ops / 10
	if warm < 1 {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		if _, err := checkedOp(w); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	logf("set-up %.3fs (median of %d), %d warm-up ops\n", median(setups), setupReps, setupReps+warm)

	// The untraced window gives every end-to-end number. In trace mode
	// it is half the ops and the traced window the other half, so a
	// traced run costs what an untraced one does.
	plain := cfg.ops
	traced := 0
	if cfg.trace {
		plain = (cfg.ops + 1) / 2
		traced = cfg.ops - plain
		if traced < 1 {
			traced = 1
		}
	}
	win := &window{}
	for i := 0; i < plain; i++ {
		win.timedOp(w, cfg.def, nil, i)
	}
	retained := retainedMB()
	runtime.KeepAlive(win.last)
	runtime.KeepAlive(w)
	steal1 := readCPUJiffies()

	res := &runResult{
		metrics:   newMetricSet(),
		attempted: win.attempted, failed: win.failed, failures: win.failures,
		counts: win.counts, cpuMS: win.cpuMS, wallMS: win.wallMS,
		ops: plain, warm: setupReps + warm,
	}
	m := res.metrics
	ok := float64(len(win.counts))
	if ok == 0 {
		ok = 1
	}
	n := float64(win.attempted)
	m.set("cpu_ms_per_op", median(win.cpuMS), "ms")
	m.set("alloc_kb_per_op", float64(win.bytes)/n/1024, "KB")
	m.set("mallocs_per_op", float64(win.mallocs)/n, "count")
	m.set("retained_mb", retained, "MB")
	m.set("deploys_per_op", float64(win.deploys)/ok, "count")
	m.set("setup_s", median(setups), "s")

	cpuS := 0.0
	for _, c := range win.cpuMS {
		cpuS += c / 1000
	}
	m.set("harness.op_wall_ms_p50", median(win.wallMS), "ms")
	m.set("harness.op_wall_ms_p90", quantile(win.wallMS, 0.9), "ms")
	m.set("harness.work_per_cpu_s", float64(win.work)/cpuS, "1/s")
	m.set("harness.cpu_ms_iqr_frac", iqrFrac(win.cpuMS), "frac")
	m.set("harness.gc_cycles_per_op", float64(win.gcs)/n, "count")
	m.set("harness.steal_frac", stealFrac(steal0, steal1), "frac")
	if !cfg.trace {
		return res, nil
	}

	// Traced window: same instance, same ops, spans on.
	tr := newTracer()
	// Seeded with the untraced window's first op, so the traced ops are
	// held to the same counts.
	twin := &window{counts: append([]opCounts(nil), win.counts[:min(1, len(win.counts))]...)}
	for i := 0; i < traced; i++ {
		twin.timedOp(w, cfg.def, tr, plain+i)
	}
	res.attempted += twin.attempted
	res.failed += twin.failed
	res.failures = append(res.failures, twin.failures...)
	res.self = tr.selfTimes()
	res.tracedOps = traced
	overhead := 0.0
	if base := median(win.cpuMS); base > 0 {
		overhead = median(twin.cpuMS)/base - 1
	}
	m.set("harness.trace_overhead_frac", overhead, "frac")
	budgetMetrics(m, res.self)
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		logf("wrote %d spans to %s\n", len(tr.spans), cfg.traceOut)
	}
	return res, nil
}

// budgetLayers are the layers a workload's spans can fall in.
var budgetLayers = []string{"amp", "stream", "shard", "core", "peering", "measure", "cluster", "harness"}

// budgetMetrics turns self times into each layer's share of the traced
// ops' CPU: the per-layer budget for the named workload.
func budgetMetrics(m *metricSet, self []selfTime) {
	byLayer := make(map[string]int64)
	total := int64(0)
	for _, st := range self {
		byLayer[layerOf(st.Name)] += st.CPUNS
		total += st.CPUNS
	}
	for _, layer := range budgetLayers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[layer]) / float64(total)
		}
		m.set("budget."+layer+"_frac", share, "frac")
	}
}
