package main

import (
	"io"
	"log"
	"log/slog"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/metrics"
	"spooftrack/internal/tsdb"
	"spooftrack/internal/watch"
)

// stormTraffic is one second of the families watchRules reads: border
// deliveries with their drops, a probe round on two links with its
// losses, and the probe coverage gauge. A storm degrades all of them at
// once; each rule is judged on its own watchdog.
type stormTraffic struct {
	border   *metrics.CounterVec
	sent     *metrics.CounterVec
	lost     *metrics.CounterVec
	coverage atomic.Uint64 // float64 bits
}

func newStormTraffic(reg *metrics.Registry) *stormTraffic {
	tr := &stormTraffic{
		border: reg.CounterVec("amp_border_packets_total", "outcome"),
		sent:   reg.CounterVec("probe_sent_total", "link"),
		lost:   reg.CounterVec("probe_lost_total", "link"),
	}
	reg.GaugeFunc("probe_coverage", func() float64 { return math.Float64frombits(tr.coverage.Load()) })
	return tr
}

func (tr *stormTraffic) step(sec int64, storm bool) {
	dropped, coverage, lost := int64(1), 0.8, int64(3) // of 1000 pps: 0.1%; of 300 probes: 1%
	if storm {
		dropped, coverage, lost = 500, 0.01, 285 // 50%, 1%, 95%
	}
	tr.border.With("forwarded").Add(1000 - dropped)
	tr.border.With("dropped").Add(dropped)
	tr.coverage.Store(math.Float64bits(coverage))
	if sec%2 != 0 {
		return // a probe round every 2 s
	}
	for _, link := range []string{"ams01", "sea02"} {
		tr.sent.With(link).Add(300)
		tr.lost.With(link).Add(lost)
	}
}

// TestStormsJudgedOnRecentHistory drives every rule the daemon ships
// through hours of scripted history, scraped every second and evaluated
// every 5 s as the daemon does: a long healthy run, a 10-minute storm
// and a healthy tail. Each rule must fire within the longest window it
// reads plus its For ticks, and clear once that window has passed the
// storm: a rule over lifetime totals fires late or never, and then
// stays in breach for hours.
func TestStormsJudgedOnRecentHistory(t *testing.T) {
	// The longest window of history each rule reads; a live gauge reads
	// none. A new rule needs its entry here.
	windows := map[string]time.Duration{
		"border-drop-rate": time.Minute,
		"border-drop-burn": time.Hour,
		"probe-coverage":   0,
		"probe-loss-rate":  time.Minute,
	}
	const (
		evalEvery = 5 // seconds
		before    = 2 * time.Hour
		storm     = 10 * time.Minute
	)
	prev, out, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	defer func() {
		slog.SetDefault(prev)
		log.SetOutput(out)
		log.SetFlags(flags)
	}()

	rules := watchRules()
	if len(rules) != len(windows) {
		t.Errorf("%d rules ship, %d have a storm scenario", len(rules), len(windows))
	}
	for _, rule := range rules {
		t.Run(rule.Name, func(t *testing.T) {
			window, ok := windows[rule.Name]
			if !ok {
				t.Fatalf("rule %q has no storm scenario", rule.Name)
			}
			reg := metrics.NewRegistry()
			tr := newStormTraffic(reg)
			db := tsdb.New(tsdb.Options{Registry: reg})
			w := watch.New(watch.Config{Registry: reg, DB: db, Rules: []watch.Rule{rule}})
			stormFrom := int64(before / time.Second)
			stormTo := stormFrom + int64(storm/time.Second)
			end := stormTo + int64((window+10*time.Minute)/time.Second)
			start := time.Unix(1_000_000, 0)
			var fired []int64
			cleared := int64(-1)
			for sec := int64(0); sec <= end; sec++ {
				tr.step(sec, sec >= stormFrom && sec < stormTo)
				now := start.Add(time.Duration(sec) * time.Second)
				db.ScrapeOnce(now)
				if sec%evalEvery != 0 {
					continue
				}
				if len(w.Evaluate(now)) > 0 {
					fired = append(fired, sec)
				}
				if sec >= stormTo && cleared < 0 && w.Healthy() {
					cleared = sec
				}
			}
			if len(fired) != 1 {
				t.Fatalf("fired at seconds %v, want once, in the storm from %d", fired, stormFrom)
			}
			fireWithin := window + time.Duration(max(rule.For, 1)*evalEvery)*time.Second
			if at := time.Duration(fired[0]-stormFrom) * time.Second; at < 0 || at > fireWithin {
				t.Errorf("fired %v into the storm, want within %v", at, fireWithin)
			}
			if cleared < 0 {
				t.Fatal("still in breach at the end of the healthy tail")
			}
			clearAfter := window + evalEvery*time.Second
			if at := time.Duration(cleared-stormTo) * time.Second; at > clearAfter {
				t.Errorf("cleared %v after the storm, want within %v", at, clearAfter)
			}
			if !w.Healthy() {
				t.Error("in breach at the end of the healthy run")
			}
			t.Logf("fired +%ds into the storm, cleared +%ds after it", fired[0]-stormFrom, cleared-stormTo)
		})
	}
}
