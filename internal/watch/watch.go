// Package watch is the pipeline's SLO watchdog: declarative rules
// evaluated on a ticker against the live metrics registry and the
// metric history in a tsdb.DB, and — when a rule stays in breach for its
// configured number of consecutive evaluations — an atomic diagnostic
// bundle written to disk carrying the breached rule, the registry
// snapshot it fired on, the recent history of chosen families, the
// trace-journal export, and goroutine/heap profiles. The paper's
// operational posture (an origin AS running localization continuously
// against live spoofed traffic) needs exactly this layer: when the loop
// degrades at 3am, the evidence of *why* is already on disk before
// anyone looks.
//
// A rule is an expression compared to a threshold:
//
//	watch.Rule{
//	    Name:      "border-drop-rate",
//	    Expr:      watch.Rate(watch.Counter{Family: "amp_border_packets_total", Child: "outcome=dropped"}, time.Minute),
//	    Op:        watch.Above,
//	    Threshold: 100,
//	    For:       3,
//	}
//
// An expression reads either a live gauge (Metric) or one window of
// history through DB.Increase (Rate, Fraction, Burn). So a rule judges
// the recent past of a run that lasts hours, never its lifetime totals,
// and tests drive Evaluate directly with a hand-scraped DB and no ticker
// or clock.
package watch

import (
	"log/slog"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
)

// View is what an expression reads at one evaluation instant: the live
// registry snapshot and the metric history up to Now.
type View struct {
	Now  time.Time
	Live map[string]any
	DB   *tsdb.DB
}

// Expr extracts one value at an evaluation instant. The bool reports
// whether the value exists (metric registered, history present,
// denominator non-zero); rules treat a missing value as "no data",
// which resets their breach streak rather than firing.
type Expr func(v View) (float64, bool)

// Counter names a cumulative series in the metric history: one
// "label=value,.." child of a family, or — with Child empty — every
// child of it summed.
type Counter struct {
	Family string
	Child  string
}

// increase is the counter's growth over the last window of history.
func (c Counter) increase(v View, window time.Duration) (delta, dtSeconds float64, ok bool) {
	return v.DB.Increase(c.Family, c.Child, v.Now.Add(-window), v.Now)
}

// Metric reads a live scalar metric (counter, gauge, or gauge func) by
// registry name.
func Metric(name string) Expr {
	return func(v View) (float64, bool) {
		switch x := v.Live[name].(type) {
		case int64:
			return float64(x), true
		case float64:
			return x, true
		}
		return 0, false
	}
}

// Rate is the counter's per-second growth over the last window, which
// a one-tick spike cannot fake. The divisor is the span history covers,
// so a freshly started daemon measures a real rate over what exists.
func Rate(c Counter, window time.Duration) Expr {
	return func(v View) (float64, bool) {
		delta, dt, ok := c.increase(v, window)
		if !ok {
			return 0, false
		}
		return delta / dt, true
	}
}

// Fraction is Δerrors/Δtotal over each window, reporting the smallest:
// an Above rule then breaches only when every window agrees — a fast
// window proves it is happening now, a slow one that it is not a blip.
// A window with no growth in total is no data, not zero.
func Fraction(errors, total Counter, windows ...time.Duration) Expr {
	return func(v View) (float64, bool) {
		best := math.Inf(1)
		for _, win := range windows {
			dTot, _, ok := total.increase(v, win)
			if !ok || dTot <= 0 {
				return 0, false
			}
			dErr, _, ok := errors.increase(v, win)
			if !ok {
				return 0, false
			}
			best = min(best, dErr/dTot)
		}
		return best, len(windows) > 0
	}
}

// Burn is Fraction in error-budget units (Google SRE multi-window
// form): the error fraction over 1−objective, so a burn of 1 spends the
// budget exactly as fast as the objective allows.
func Burn(errors, total Counter, objective float64, windows ...time.Duration) Expr {
	frac := Fraction(errors, total, windows...)
	return func(v View) (float64, bool) {
		f, ok := frac(v)
		return f / (1 - objective), ok
	}
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
	// Expr extracts the value under watch.
	Expr Expr
	// Op and Threshold define the breach condition.
	Op        Op
	Threshold float64
	// For is the number of consecutive breaching evaluations before the
	// rule fires (default 1 — fire immediately).
	For int
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

// evalInterval is the evaluation cadence of Start.
const evalInterval = 5 * time.Second

// keepBundles caps the bundles kept in Config.BundleDir; older ones are
// pruned.
const keepBundles = 8

// Config assembles a Watchdog. Start evaluates every evalInterval (5s),
// at most keepBundles (8) bundles are kept, and breaches and recoveries
// log to slog.Default(); the unexported fields let this package's tests
// change all three.
type Config struct {
	// Registry is the metrics registry to watch (required).
	Registry *metrics.Registry
	// DB is the metric history windowed expressions read and breach
	// bundles embed (required). The watchdog never writes to it.
	DB *tsdb.DB
	// BundleHistory names metric families whose last hour of history is
	// embedded in diagnostic bundles.
	BundleHistory []string
	// Rules are the SLOs to evaluate each tick.
	Rules []Rule
	// Tracer, when non-nil, has its journal exported into bundles.
	Tracer *trace.Tracer
	// BundleDir is where diagnostic bundles are written; empty disables
	// bundle writing (breaches still log and are returned by Evaluate).
	BundleDir string

	interval   time.Duration // default evalInterval
	maxBundles int           // default keepBundles
	logger     *slog.Logger  // default slog.Default()
}

// Watchdog evaluates SLO rules against the registry and its history
// and captures diagnostic bundles on breach. Create with New; drive with
// Start/Stop (ticker) or Evaluate (manual, e.g. tests).
type Watchdog struct {
	cfg Config

	mu         sync.Mutex
	states     []ruleState
	lastBundle string
	breaches   uint64

	started  atomic.Bool
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

// New builds a watchdog. It panics without a registry or a history DB —
// a watchdog with nothing to watch, or no past to compare against, is a
// wiring bug.
func New(cfg Config) *Watchdog {
	if cfg.Registry == nil {
		panic("watch: Config.Registry is required")
	}
	if cfg.DB == nil {
		panic("watch: Config.DB is required")
	}
	if cfg.interval <= 0 {
		cfg.interval = evalInterval
	}
	if cfg.maxBundles <= 0 {
		cfg.maxBundles = keepBundles
	}
	if cfg.logger == nil {
		cfg.logger = slog.Default()
	}
	return &Watchdog{
		cfg:    cfg,
		states: make([]ruleState, len(cfg.Rules)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start runs the evaluation ticker until Stop.
func (w *Watchdog) Start() {
	w.started.Store(true)
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.cfg.interval)
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

// Stop halts the ticker and waits for the evaluation loop to exit, an
// evaluation in progress included. Safe to call more than once, and
// without a prior Start.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	if w.started.Load() {
		<-w.done
	}
}

// Evaluate runs one tick at the given time: snapshot the registry,
// evaluate every rule against it and the history up to now, and fire
// breaches whose For streak completes. It returns the breaches fired
// this tick (usually none). Exported so tests and callers without a
// ticker can drive the watchdog deterministically.
func (w *Watchdog) Evaluate(now time.Time) []Breach {
	view := View{Now: now, Live: w.cfg.Registry.Snapshot(), DB: w.cfg.DB}

	w.mu.Lock()
	var fired []Breach
	for i, rule := range w.cfg.Rules {
		st := &w.states[i]
		value, ok := rule.Expr(view)
		st.lastValue, st.hasData = value, ok
		breachingNow := ok && compare(rule.Op, value, rule.Threshold)
		if !breachingNow {
			if st.breaching {
				w.cfg.logger.Info("slo recovered", "rule", rule.Name,
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
			path, err := w.writeBundleLocked(b, rule, view.Live)
			if err != nil {
				w.cfg.logger.Warn("diagnostic bundle write failed", "rule", rule.Name, "err", err)
			} else {
				b.BundlePath = path
				w.lastBundle = path
			}
		}
		fired = append(fired, b)
	}
	w.mu.Unlock()

	for _, b := range fired {
		w.cfg.logger.Warn("slo breach", "rule", b.Rule,
			"value", b.Value, "op", b.Op, "threshold", b.Threshold,
			"consecutive", b.Consecutive, "bundle", b.BundlePath)
	}
	return fired
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

// ReadyFunc returns the watchdog's SLO health as a readiness gate — the
// membership signal the sharded-ingest controller consults before
// keeping a shard in the ring (internal/shard: /readyz + SLO rules gate
// membership, so a breaching shard is drained rather than silently
// miscounted). It is callable on a nil *Watchdog, yielding a gate that
// is always ready, so a process without a watchdog (a controller) never
// reports itself unready for want of one.
func (w *Watchdog) ReadyFunc() func() bool {
	return func() bool { return w == nil || w.Healthy() }
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

// LastBundlePath returns the most recently written bundle's path ("" if
// none yet).
func (w *Watchdog) LastBundlePath() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastBundle
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
