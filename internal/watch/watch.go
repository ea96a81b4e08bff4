// Package watch is the pipeline's SLO watchdog: declarative rules
// evaluated on a ticker against metrics-registry snapshots, a bounded
// flight-recorder ring of recent snapshots, and — when a rule stays in
// breach for its configured number of consecutive evaluations — an
// atomic diagnostic bundle written to disk carrying the breached rule,
// the recorder's snapshots, the trace-journal export, and
// goroutine/heap profiles. The paper's operational posture (an origin
// AS running localization continuously against live spoofed traffic)
// needs exactly this layer: when the loop degrades at 3am, the evidence
// of *why* is already on disk before anyone looks.
//
// Rules are built from small snapshot-extractor combinators:
//
//	watch.Rule{
//	    Name:      "flush-lag-p99",
//	    Expr:      watch.Quantile("stream_flush_lag_seconds", 0.99),
//	    Op:        watch.Above,
//	    Threshold: 2.0,
//	    For:       3,
//	}
//
// Expressions are pure functions of one snapshot, so a rule's Rate
// variant (per-second delta between consecutive snapshots) composes
// with every extractor, and tests can drive Evaluate directly without a
// ticker or a clock.
package watch

import (
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"

	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
)

// Expr extracts one value from a registry snapshot. The bool reports
// whether the value exists (metric registered, denominator non-zero);
// rules treat a missing value as "no data", which resets their breach
// streak rather than firing.
type Expr func(snap map[string]any) (float64, bool)

// Metric reads a scalar metric (counter, gauge, or gauge func) by
// registry name. For histograms it reads the observation count.
func Metric(name string) Expr {
	return func(snap map[string]any) (float64, bool) {
		return scalar(snap[name])
	}
}

// Series reads one child of a labeled vector. key is the child's
// "label=value,label=value" identity in label-name order — the same key
// the registry's JSON export uses.
func Series(name, key string) Expr {
	return func(snap map[string]any) (float64, bool) {
		vec, ok := snap[name].(map[string]any)
		if !ok {
			return 0, false
		}
		return scalar(vec[key])
	}
}

// Quantile estimates a quantile of a histogram metric from its bucket
// snapshot (full bound layout in Bounds, occupied buckets in the sparse
// Buckets map) through metrics.BucketQuantile, so it answers exactly
// what the live Histogram.Quantile would. Missing when the histogram is
// absent or has no observations.
func Quantile(name string, q float64) Expr {
	return func(snap map[string]any) (float64, bool) {
		hs, ok := snap[name].(metrics.HistogramSnapshot)
		if !ok || hs.Count == 0 {
			return 0, false
		}
		count := func(i int) float64 {
			return float64(hs.Buckets[strconv.FormatFloat(hs.Bounds[i], 'g', -1, 64)])
		}
		return metrics.BucketQuantile(q, hs.Bounds, count, float64(hs.Count), hs.Max), true
	}
}

// Ratio is num/den on one snapshot; missing when either side is missing
// or the denominator is zero.
func Ratio(num, den Expr) Expr {
	return func(snap map[string]any) (float64, bool) {
		n, ok1 := num(snap)
		d, ok2 := den(snap)
		if !ok1 || !ok2 || d == 0 {
			return 0, false
		}
		return n / d, true
	}
}

// VecSum adds every child of a labeled vector — the cross-label total
// Series can't express without enumerating keys (e.g. probe losses
// summed over all peering links). Missing when the vector is absent or
// has no children, so rules on a vector that hasn't emitted yet stay in
// "no data" instead of comparing against zero.
func VecSum(name string) Expr {
	return func(snap map[string]any) (float64, bool) {
		vec, ok := snap[name].(map[string]any)
		if !ok || len(vec) == 0 {
			return 0, false
		}
		total := 0.0
		for _, v := range vec {
			s, ok := scalar(v)
			if !ok {
				return 0, false
			}
			total += s
		}
		return total, true
	}
}

// Sum adds expressions; missing when any operand is missing.
func Sum(exprs ...Expr) Expr {
	return func(snap map[string]any) (float64, bool) {
		total := 0.0
		for _, e := range exprs {
			v, ok := e(snap)
			if !ok {
				return 0, false
			}
			total += v
		}
		return total, true
	}
}

// scalar coerces the snapshot value shapes (counter int64, gauge
// float64, histogram snapshot -> count) to float64.
func scalar(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case metrics.HistogramSnapshot:
		return float64(x.Count), true
	}
	return 0, false
}

// Op compares a rule's value to its threshold.
type Op int

const (
	// Above breaches when value > threshold.
	Above Op = iota
	// Below breaches when value < threshold.
	Below
)

func (o Op) String() string {
	if o == Below {
		return "<"
	}
	return ">"
}

// Rule is one declarative SLO: an extracted value compared to a
// threshold, breaching only after For consecutive failing evaluations
// (hysteresis against single-tick noise).
type Rule struct {
	// Name identifies the rule in logs, bundles, and /readyz.
	Name string
	// Expr extracts the value under watch from a snapshot.
	Expr Expr
	// Rate, when set, watches Expr's per-second growth instead of its
	// level — the shape counter-derived SLOs (drop rate, error rate)
	// take. With a history DB wired (Config.DB) the rate is taken over
	// Window of real history, which a one-tick spike between two
	// adjacent snapshots cannot fake; without one it falls back to the
	// delta between consecutive evaluation snapshots.
	Rate bool
	// Window is the history span Rate rules average over when Config.DB
	// is set (default 1m). Ignored for level rules.
	Window time.Duration
	// Op and Threshold define the breach condition.
	Op        Op
	Threshold float64
	// For is the number of consecutive breaching evaluations before the
	// rule fires (default 1 — fire immediately).
	For int

	// Burn-rate SLO fields (Google SRE multi-window form). When
	// Objective, ErrorExpr, and TotalExpr are all set and Config.DB is
	// wired, the rule watches
	//
	//	burn(W) = (increase(error, W) / increase(total, W)) / (1 − Objective)
	//
	// for every window in Windows (e.g. a fast 5m and a slow 1h), and
	// reports the SMALLEST burn — so an Above rule breaches only when
	// every window burns hot: the fast window proves it is happening
	// now, the slow one proves it is not a blip. Windows reaching past
	// recorded history clamp to the oldest sample, so a freshly started
	// daemon measures real burn instead of diluting over missing time.
	ErrorExpr Expr
	TotalExpr Expr
	Objective float64 // availability target in (0,1), e.g. 0.999
	Windows   []time.Duration
}

// burnRule reports whether the rule is a multi-window burn-rate SLO.
func (r Rule) burnRule() bool {
	return r.Objective > 0 && r.Objective < 1 && r.ErrorExpr != nil && r.TotalExpr != nil && len(r.Windows) > 0
}

// RuleStatus is one rule's current evaluation state.
type RuleStatus struct {
	Name        string  `json:"name"`
	Value       float64 `json:"value"`
	HasData     bool    `json:"has_data"`
	Threshold   float64 `json:"threshold"`
	Op          string  `json:"op"`
	Consecutive int     `json:"consecutive"`
	For         int     `json:"for"`
	Breaching   bool    `json:"breaching"`
}

// Breach describes a rule that just fired (crossed its For streak).
type Breach struct {
	Rule        string    `json:"rule"`
	Op          string    `json:"op"`
	Threshold   float64   `json:"threshold"`
	Value       float64   `json:"value"`
	Consecutive int       `json:"consecutive"`
	Time        time.Time `json:"time"`
	// BundlePath is where the diagnostic bundle landed ("" when bundle
	// writing is disabled or failed; failures are logged).
	BundlePath string `json:"bundle_path,omitempty"`
}

// Snapshot is one flight-recorder frame: a registry snapshot and when
// it was taken. TS repeats the capture instant as unix seconds so
// exported frames are self-describing to consumers that don't parse
// RFC 3339.
type Snapshot struct {
	Time    time.Time      `json:"time"`
	TS      int64          `json:"ts"`
	Metrics map[string]any `json:"metrics"`
}

// Config assembles a Watchdog.
type Config struct {
	// Registry is the metrics registry to watch (required).
	Registry *metrics.Registry
	// DB, when non-nil, gives rules metric history: Rate rules average
	// over their Window instead of two adjacent ticks, burn-rate rules
	// become possible, and breach bundles embed the relevant query
	// window. The watchdog never writes to it.
	DB *tsdb.DB
	// BundleHistory names metric families whose recent history (over the
	// breached rule's longest window, at least 10m) is embedded in
	// diagnostic bundles when DB is set.
	BundleHistory []string
	// Rules are the SLOs to evaluate each tick.
	Rules []Rule
	// Interval is the evaluation cadence for Start (default 5s).
	Interval time.Duration
	// History bounds the flight-recorder ring (default 32 snapshots).
	History int
	// Tracer, when non-nil, has its journal exported into bundles.
	Tracer *trace.Tracer
	// BundleDir is where diagnostic bundles are written; empty disables
	// bundle writing (breaches still log and fire OnBreach).
	BundleDir string
	// MaxBundles caps bundles kept in BundleDir, oldest pruned (default 8).
	MaxBundles int
	// Logger receives breach/recovery messages (default slog.Default()).
	Logger *slog.Logger
	// OnBreach, when non-nil, is called synchronously for every fired
	// breach, after the bundle is written.
	OnBreach func(Breach)
}

// Watchdog evaluates SLO rules against registry snapshots and captures
// diagnostic bundles on breach. Create with New; drive with Start/Stop
// (ticker) or Evaluate (manual, e.g. tests).
type Watchdog struct {
	cfg Config

	mu         sync.Mutex
	ring       []Snapshot // flight recorder, oldest first once full
	ringNext   int
	ringFull   bool
	prev       *Snapshot
	states     []ruleState
	lastBundle string
	breaches   uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type ruleState struct {
	consecutive int
	breaching   bool // fired and not yet recovered
	lastValue   float64
	hasData     bool
}

// New builds a watchdog. It panics without a registry — a watchdog with
// nothing to watch is a wiring bug.
func New(cfg Config) *Watchdog {
	if cfg.Registry == nil {
		panic("watch: Config.Registry is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.History <= 0 {
		cfg.History = 32
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 8
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Watchdog{
		cfg:    cfg,
		ring:   make([]Snapshot, cfg.History),
		states: make([]ruleState, len(cfg.Rules)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start runs the evaluation ticker until Stop.
func (w *Watchdog) Start() {
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.Evaluate(time.Now())
			}
		}
	}()
}

// Stop halts the ticker and waits for the evaluation loop to exit. Safe
// to call more than once, and without a prior Start.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	select {
	case <-w.done:
	default:
		// Start never ran; don't block on its goroutine.
		select {
		case <-w.done:
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Evaluate runs one tick at the given time: snapshot the registry, push
// it into the flight recorder, evaluate every rule, and fire breaches
// whose For streak completes. It returns the breaches fired this tick
// (usually none). Exported so tests and callers without a ticker can
// drive the watchdog deterministically.
func (w *Watchdog) Evaluate(now time.Time) []Breach {
	cur := Snapshot{Time: now, TS: now.Unix(), Metrics: w.cfg.Registry.Snapshot()}

	w.mu.Lock()
	prev := w.prev
	w.ring[w.ringNext] = cur
	w.ringNext++
	if w.ringNext == len(w.ring) {
		w.ringNext = 0
		w.ringFull = true
	}
	w.prev = &cur

	var fired []Breach
	for i, rule := range w.cfg.Rules {
		st := &w.states[i]
		value, ok := w.eval(rule, cur, prev)
		st.lastValue, st.hasData = value, ok
		breachingNow := ok && compare(rule.Op, value, rule.Threshold)
		if !breachingNow {
			if st.breaching {
				w.cfg.Logger.Info("slo recovered", "rule", rule.Name,
					"value", value, "threshold", rule.Threshold)
			}
			st.consecutive = 0
			st.breaching = false
			continue
		}
		st.consecutive++
		need := rule.For
		if need <= 0 {
			need = 1
		}
		if st.consecutive < need || st.breaching {
			continue
		}
		st.breaching = true
		w.breaches++
		b := Breach{
			Rule:        rule.Name,
			Op:          rule.Op.String(),
			Threshold:   rule.Threshold,
			Value:       value,
			Consecutive: st.consecutive,
			Time:        now,
		}
		if w.cfg.BundleDir != "" {
			path, err := w.writeBundleLocked(b)
			if err != nil {
				w.cfg.Logger.Warn("diagnostic bundle write failed", "rule", rule.Name, "err", err)
			} else {
				b.BundlePath = path
				w.lastBundle = path
			}
		}
		fired = append(fired, b)
	}
	w.mu.Unlock()

	for _, b := range fired {
		w.cfg.Logger.Warn("slo breach", "rule", b.Rule,
			"value", b.Value, "op", b.Op, "threshold", b.Threshold,
			"consecutive", b.Consecutive, "bundle", b.BundlePath)
		if w.cfg.OnBreach != nil {
			w.cfg.OnBreach(b)
		}
	}
	return fired
}

// eval computes a rule's value: the expression on the current snapshot;
// its per-second growth over Window (history-backed) or against the
// previous snapshot (two-frame fallback) for Rate rules; or the minimum
// multi-window burn for burn-rate rules.
func (w *Watchdog) eval(rule Rule, cur Snapshot, prev *Snapshot) (float64, bool) {
	if rule.burnRule() {
		return w.evalBurn(rule, cur)
	}
	v, ok := rule.Expr(cur.Metrics)
	if !rule.Rate {
		return v, ok
	}
	if !ok {
		return 0, false
	}
	if w.cfg.DB != nil {
		if rv, rok := w.evalWindowRate(rule, cur, v); rok {
			return rv, true
		}
	}
	if prev == nil {
		return 0, false
	}
	pv, pok := rule.Expr(prev.Metrics)
	dt := cur.Time.Sub(prev.Time).Seconds()
	if !pok || dt <= 0 {
		return 0, false
	}
	return (v - pv) / dt, true
}

// evalWindowRate is the history-backed Rate path: Expr now versus Expr
// over a reconstructed snapshot Window ago, divided by the real span.
// The window clamps to the DB's oldest sample so warmup rates are
// honest rather than silent.
func (w *Watchdog) evalWindowRate(rule Rule, cur Snapshot, curVal float64) (float64, bool) {
	win := rule.Window
	if win <= 0 {
		win = time.Minute
	}
	then := cur.Time.Add(-win)
	if early, ok := w.cfg.DB.Earliest(); ok && early.After(then) {
		then = early
	}
	dt := cur.Time.Sub(then).Seconds()
	if dt <= 0 {
		return 0, false
	}
	pv, ok := rule.Expr(w.cfg.DB.SnapshotAt(then))
	if !ok {
		return 0, false
	}
	return (curVal - pv) / dt, true
}

// evalBurn computes the minimum burn rate across the rule's windows.
// "No traffic in a window" is no data, not zero burn.
func (w *Watchdog) evalBurn(rule Rule, cur Snapshot) (float64, bool) {
	if w.cfg.DB == nil {
		return 0, false
	}
	eNow, ok1 := rule.ErrorExpr(cur.Metrics)
	tNow, ok2 := rule.TotalExpr(cur.Metrics)
	if !ok1 || !ok2 {
		return 0, false
	}
	denom := 1 - rule.Objective
	early, hasEarly := w.cfg.DB.Earliest()
	best := 0.0
	for i, win := range rule.Windows {
		then := cur.Time.Add(-win)
		if hasEarly && early.After(then) {
			then = early
		}
		if !then.Before(cur.Time) {
			return 0, false
		}
		past := w.cfg.DB.SnapshotAt(then)
		// A counter absent from the reconstructed past snapshot had not
		// been incremented yet: its value then was zero.
		eThen, _ := rule.ErrorExpr(past)
		tThen, _ := rule.TotalExpr(past)
		dTot := tNow - tThen
		if dTot <= 0 {
			return 0, false
		}
		dErr := eNow - eThen
		if dErr < 0 {
			dErr = 0
		}
		burn := (dErr / dTot) / denom
		if i == 0 || burn < best {
			best = burn
		}
	}
	return best, true
}

func compare(op Op, v, threshold float64) bool {
	if op == Below {
		return v < threshold
	}
	return v > threshold
}

// Healthy reports whether no rule is currently in breach — the readiness
// signal /readyz serves.
func (w *Watchdog) Healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.states {
		if w.states[i].breaching {
			return false
		}
	}
	return true
}

// ReadyFunc returns a readiness gate that ANDs the watchdog's SLO
// health with extra conditions — the membership signal the
// sharded-ingest controller consults before keeping a shard in the
// ring (internal/shard: /readyz + SLO rules gate membership, so a
// breaching shard is drained rather than silently miscounted). It is
// callable on a nil *Watchdog, yielding a gate over the extra
// conditions only, so a shard running without SLO rules is ready
// whenever its own conditions hold.
func (w *Watchdog) ReadyFunc(extra ...func() bool) func() bool {
	return func() bool {
		if w != nil && !w.Healthy() {
			return false
		}
		for _, f := range extra {
			if f != nil && !f() {
				return false
			}
		}
		return true
	}
}

// Status returns every rule's current evaluation state.
func (w *Watchdog) Status() []RuleStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]RuleStatus, len(w.cfg.Rules))
	for i, rule := range w.cfg.Rules {
		st := w.states[i]
		out[i] = RuleStatus{
			Name:        rule.Name,
			Value:       st.lastValue,
			HasData:     st.hasData,
			Threshold:   rule.Threshold,
			Op:          rule.Op.String(),
			Consecutive: st.consecutive,
			For:         max(rule.For, 1),
			Breaching:   st.breaching,
		}
	}
	return out
}

// BreachingRules returns the names of rules currently in breach.
func (w *Watchdog) BreachingRules() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for i := range w.states {
		if w.states[i].breaching {
			out = append(out, w.cfg.Rules[i].Name)
		}
	}
	return out
}

// Breaches returns how many breaches have fired since construction.
func (w *Watchdog) Breaches() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.breaches
}

// LastBundlePath returns the most recently written bundle's path ("" if
// none yet).
func (w *Watchdog) LastBundlePath() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastBundle
}

// Recorder returns the flight recorder's snapshots, oldest first.
func (w *Watchdog) Recorder() []Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recorderLocked()
}

func (w *Watchdog) recorderLocked() []Snapshot {
	if !w.ringFull {
		return append([]Snapshot(nil), w.ring[:w.ringNext]...)
	}
	out := make([]Snapshot, 0, len(w.ring))
	out = append(out, w.ring[w.ringNext:]...)
	out = append(out, w.ring[:w.ringNext]...)
	return out
}

// ruleByName resolves a rule for bundle metadata.
func (w *Watchdog) ruleByName(name string) (Rule, bool) {
	for _, r := range w.cfg.Rules {
		if r.Name == name {
			return r, true
		}
	}
	return Rule{}, false
}

// sanitizeFile maps a rule name onto a filesystem-safe token.
func sanitizeFile(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, name)
}
