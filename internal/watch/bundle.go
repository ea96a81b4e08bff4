package watch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"spooftrack/internal/tsdb"
)

// Bundle is a self-contained diagnostic capture taken at breach time:
// everything an operator needs to reconstruct what the pipeline was
// doing when the SLO went red, without shelling into the host. Profiles
// are in pprof's debug=1 text form so the bundle stays one readable
// JSON document.
type Bundle struct {
	Version int       `json:"version"`
	Time    time.Time `json:"time"`
	Breach  Breach    `json:"breach"`
	RuleFor int       `json:"rule_for"`
	// Snapshot is the live registry snapshot the rule fired on.
	Snapshot map[string]any `json:"snapshot"`
	// History is the tsdb range for Config.BundleHistory families over
	// the bundleHistorySpan ending at breach time — the query an
	// operator would run first, already answered.
	History      []tsdb.SeriesData `json:"history,omitempty"`
	HistoryFrom  time.Time         `json:"history_from,omitempty"`
	Trace        json.RawMessage   `json:"trace,omitempty"`
	Goroutine    string            `json:"goroutine_profile"`
	Heap         string            `json:"heap_profile"`
	NumGoroutine int               `json:"num_goroutine"`
	GoVersion    string            `json:"go_version"`
}

// bundleVersion is bumped when the bundle shape changes incompatibly.
const bundleVersion = 2

// bundleHistorySpan is the history window embedded in bundles: the
// longest window a shipped rule reads.
const bundleHistorySpan = time.Hour

// writeBundleLocked captures and atomically writes a diagnostic bundle
// for the rule's breach, evaluated on the live snapshot, returning its
// path. Caller holds w.mu (bundle pruning and lastBundle must not
// interleave); profile and trace capture do not touch watchdog state.
func (w *Watchdog) writeBundleLocked(b Breach, rule Rule, live map[string]any) (string, error) {
	bundle := Bundle{
		Version:      bundleVersion,
		Time:         b.Time,
		Breach:       b,
		RuleFor:      max(rule.For, 1),
		Snapshot:     live,
		NumGoroutine: runtime.NumGoroutine(),
		GoVersion:    runtime.Version(),
	}
	if len(w.cfg.BundleHistory) > 0 {
		bundle.HistoryFrom = b.Time.Add(-bundleHistorySpan)
		for _, family := range w.cfg.BundleHistory {
			bundle.History = append(bundle.History, w.cfg.DB.Query(tsdb.Query{
				Series: family, From: bundle.HistoryFrom, To: b.Time,
			})...)
		}
	}
	if w.cfg.Tracer != nil {
		var tb bytes.Buffer
		if err := w.cfg.Tracer.WriteJSON(&tb); err == nil {
			bundle.Trace = json.RawMessage(bytes.TrimSpace(tb.Bytes()))
		}
	}
	bundle.Goroutine = profileText("goroutine")
	bundle.Heap = profileText("heap")

	if err := os.MkdirAll(w.cfg.BundleDir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("bundle-%s-%d.json", sanitizeFile(b.Rule), b.Time.UnixNano())
	path := filepath.Join(w.cfg.BundleDir, name)
	data, err := json.MarshalIndent(bundle, "", "  ")
	if err != nil {
		return "", err
	}
	// Atomic publish: a scraper hitting /debug/bundle mid-write must see
	// either the previous bundle or this one, never a truncated file.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	w.pruneBundlesLocked()
	return path, nil
}

// pruneBundlesLocked keeps the newest maxBundles bundle files in the
// bundle directory.
func (w *Watchdog) pruneBundlesLocked() {
	paths, err := listBundles(w.cfg.BundleDir)
	if err != nil || len(paths) <= w.cfg.maxBundles {
		return
	}
	for _, p := range paths[:len(paths)-w.cfg.maxBundles] {
		os.Remove(p)
	}
}

// listBundles returns bundle files in dir, oldest first. Bundle names
// embed a nanosecond timestamp, so lexical order is age order within
// one rule and close enough across rules for pruning and "latest".
func listBundles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, "bundle-") && strings.HasSuffix(name, ".json") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return bundleStamp(out[i]) < bundleStamp(out[j])
	})
	return out, nil
}

// bundleStamp extracts the UnixNano stamp from a bundle filename (0 on
// malformed names, sorting them oldest).
func bundleStamp(path string) int64 {
	base := strings.TrimSuffix(filepath.Base(path), ".json")
	i := strings.LastIndexByte(base, '-')
	if i < 0 {
		return 0
	}
	var n int64
	if _, err := fmt.Sscanf(base[i+1:], "%d", &n); err != nil {
		return 0
	}
	return n
}

// profileText renders a runtime profile in pprof's debug=1 text form.
func profileText(name string) string {
	p := pprof.Lookup(name)
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	return buf.String()
}
