package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"spooftrack"
	"spooftrack/internal/core"
	"spooftrack/internal/fault"
	"spooftrack/internal/metrics"
	"spooftrack/internal/topo"
	"spooftrack/internal/tsdb"
	"spooftrack/internal/watch"
)

// TestFlagSurface pins the daemon's flag names against a golden: a
// change that adds, drops or renames one updates the golden on purpose.
// The -fault-profile help is built from the profile catalogue, so it
// names every profile.
func TestFlagSurface(t *testing.T) {
	var usage bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &usage); err == nil {
		t.Fatal("-h should return flag.ErrHelp")
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		names = append(names, m[1])
	}
	if len(names) != 26 {
		t.Errorf("%d flags, want 26", len(names))
	}
	goldenBody(t, "flags.golden", strings.Join(names, "\n")+"\n")
	for _, profile := range fault.Names() {
		if !strings.Contains(usage.String(), profile) {
			t.Errorf("-h does not name fault profile %q", profile)
		}
	}
}

// TestParseFlagsRejects: a bad invocation is an error for main to
// report, never an exit in place.
func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"shards+shard-id", []string{"-shards", "2", "-shard-id", "s0"}, "mutually exclusive"},
		{"shards+controller", []string{"-shards", "2", "-controller", "s0=http://h:1"}, "mutually exclusive"},
		{"shard-id+controller", []string{"-shard-id", "s0", "-controller", "s0=http://h:1"}, "mutually exclusive"},
		{"log level", []string{"-log-level", "verbose"}, "unknown -log-level"},
		{"controller without url", []string{"-controller", "s0"}, "want id=http://host:port"},
		{"controller without id", []string{"-controller", "=http://h:1"}, "want id=http://host:port"},
		{"controller empty", []string{"-controller", ","}, "no shards"},
		{"controller repeats a shard", []string{"-controller", "s0=http://h:1,s0=http://h:2"}, `shard "s0" listed twice`},
		{"unknown flag", []string{"-relay"}, "not defined"},
	} {
		if _, err := parseFlags(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: parseFlags(%q) = %v, want an error containing %q", tc.name, tc.args, err, tc.want)
		}
	}
	cfg, err := parseFlags([]string{"-controller", "a=http://h:1, b=http://h:2"}, io.Discard)
	if err != nil || len(cfg.place.peerIDs) != 2 || cfg.place.shards != 0 || cfg.place.shardID != "" {
		t.Fatalf("valid -controller spec: %+v, %v", cfg.place, err)
	}
}

// TestRetiredFlagsKeepDefaults: the flags that were only ever set to
// their defaults became constants, literals and library defaults with
// the same values — /slo lists the four rules at the old thresholds.
func TestRetiredFlagsKeepDefaults(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	dog := newWatchdog(cfg, observability{reg: reg, db: tsdb.New(tsdb.Options{Registry: reg})})
	var got []watch.RuleStatus
	for _, st := range dog.Status() {
		got = append(got, watch.RuleStatus{Name: st.Name, Op: st.Op, Threshold: st.Threshold, For: st.For})
	}
	want := []watch.RuleStatus{
		{Name: "border-drop-rate", Op: ">", Threshold: 100, For: 3},
		{Name: "border-drop-burn", Op: ">", Threshold: 2.0, For: 3},
		{Name: "probe-coverage", Op: "<", Threshold: 0.05, For: 3},
		{Name: "probe-loss-rate", Op: ">", Threshold: 0.9, For: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("watchdog rules %+v, want %+v", got, want)
	}
	if probeBudget != 200 || demoPPS != 400 || core.DefaultRetryPolicy().MaxAttempts != 4 {
		t.Errorf("probe budget %d, demo pps %d, deploy attempts %d; want 200, 400, 4",
			probeBudget, demoPPS, core.DefaultRetryPolicy().MaxAttempts)
	}
}

// TestDocumentedInvocationsParse: every daemon command line the README
// and the verify skill show parses, so a doc that still passes a
// deleted flag fails here instead of at an operator's shell, and every
// command or example they name exists. (cmd/spooftrack and cmd/topogen
// parse their own lines in their own tests.)
func TestDocumentedInvocationsParse(t *testing.T) {
	for _, doc := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range regexp.MustCompile(`\./(?:cmd|examples)/[\w-]+`).FindAllString(string(data), -1) {
			if _, err := os.Stat(filepath.Join("../..", dir)); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, dir)
			}
		}
		runs := daemonInvocations(string(data))
		if len(runs) == 0 {
			t.Errorf("%s: no daemon command lines found", doc)
		}
		for _, args := range runs {
			if _, err := parseFlags(args, io.Discard); err != nil {
				t.Errorf("%s: spooftrackd %s: %v", doc, strings.Join(args, " "), err)
			}
		}
	}
}

// TestTopoFileReproducesWorld: a topology written once at -seed 42
// and loaded with -topo-file builds the campaign the daemon builds for
// itself from -seed 42 -ases 300, so processes that share the file and
// the seed agree on one attribution matrix.
func TestTopoFileReproducesWorld(t *testing.T) {
	p := topo.DefaultGenParams(42)
	p.NumASes = 300
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topo.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.WriteCAIDA(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var camps []*spooftrack.Campaign
	for _, args := range [][]string{{"-seed", "42", "-ases", "300"}, {"-seed", "42", "-topo-file", path}} {
		cfg, err := parseFlags(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		tracker, _, err := offline(cfg.world)
		if err != nil {
			t.Fatalf("%s: %v", strings.Join(args, " "), err)
		}
		camps = append(camps, tracker.Campaign)
	}
	built, loaded := camps[0], camps[1]
	if built.NumSources() == 0 || !reflect.DeepEqual(built.Sources, loaded.Sources) ||
		!reflect.DeepEqual(built.Catchments, loaded.Catchments) {
		t.Fatalf("-topo-file campaign differs: %d sources / %d configurations built, %d / %d loaded",
			built.NumSources(), len(built.Catchments), loaded.NumSources(), len(loaded.Catchments))
	}
}

// daemonInvocations returns the arguments of every command line in doc
// that runs the daemon — `go run ./cmd/spooftrackd` or the binary built
// as /tmp/spd — with backslash continuations joined and a trailing
// comment and `&` dropped.
func daemonInvocations(doc string) [][]string {
	var runs [][]string
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, `\`) + " " + strings.TrimSpace(lines[i])
		}
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "go" && f[1] == "run" && f[2] == "./cmd/spooftrackd":
			f = f[3:]
		case len(f) >= 1 && f[0] == "/tmp/spd":
			f = f[1:]
		default:
			continue
		}
		for j, w := range f {
			if strings.HasPrefix(w, "#") {
				f = f[:j]
				break
			}
		}
		if n := len(f); n > 0 && f[n-1] == "&" {
			f = f[:n-1]
		}
		runs = append(runs, f)
	}
	return runs
}
