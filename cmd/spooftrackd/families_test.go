package main

import (
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWatchedFamiliesRegistered runs the daemon and checks both
// directions between /metrics and what reads it. Forward: every metric
// family a watchdog rule reads, BundleHistory embeds or a /dash panel
// queries is on /metrics once its components are up — a rule, bundle
// entry or panel naming a family nothing registers would sit in "no
// data" forever. Reverse: every family on /metrics has a reader (see
// familyReaders) — one that has none is code to delete. It boots the
// daemon twice with probing and the ledger on: in its default placement
// (one intake shard) and with -shards 2, where two intakes register on
// one registry.
func TestWatchedFamiliesRegistered(t *testing.T) {
	want := watchedFamilies(t)
	for _, m := range regexp.MustCompile(`series=(\w+)`).FindAllStringSubmatch(dashHTML, -1) {
		want = append(want, m[1])
	}
	slices.Sort(want)
	want = slices.Compact(want)
	// The families the daemon's rules, bundles and panels read: a change
	// to how rules name families must not drop one out of this check.
	for _, fam := range []string{"amp_border_packets_total", "probe_coverage", "probe_lost_total", "probe_sent_total",
		"stream_degraded", "stream_events_total"} {
		if !slices.Contains(want, fam) {
			t.Fatalf("%s is no longer among the checked families %v", fam, want)
		}
	}
	readers := familyReaders(t, want)

	for _, mode := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"shards", []string{"-shards", "2"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			snap := daemonFamilies(t, want, mode.args...)
			var unread []string
			for fam := range snap {
				if !readers[fam] && fam != "ts" {
					unread = append(unread, fam)
				}
			}
			slices.Sort(unread)
			if len(unread) > 0 {
				t.Errorf("families on /metrics that no rule, bundle, /dash panel, bench literal or named exception reads: %v", unread)
			}
		})
	}
}

// daemonFamilies boots the daemon with args on top of a fast-ticking,
// probing base, waits until every family in want is on /metrics, and
// returns that /metrics snapshot.
func daemonFamilies(t *testing.T, want []string, args ...string) map[string]any {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cfg, err := parseFlags(append([]string{"-listen", addr, "-ases", "400", "-eval", "100ms", "-min-round", "40",
		"-probe-interval", "100ms", "-bundle-dir", t.TempDir(), "-log-level", "error"}, args...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	var missing []string
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		snap, ok := metricsSnapshot("http://" + addr + "/metrics")
		if !ok {
			continue
		}
		missing = missing[:0]
		for _, fam := range want {
			if _, ok := snap[fam]; !ok {
				missing = append(missing, fam)
			}
		}
		if len(missing) == 0 {
			return snap
		}
	}
	t.Fatalf("families named by the watchdog or /dash but never registered: %v (of %v)", missing, want)
	return nil
}

// unreadFamilies are registered with no reader and kept only until the
// change that deletes their registration: the bench drives the honeypot
// through Honeypot.SetMetrics, so its families go with HoneypotConfig
// (ROADMAP item 8).
var unreadFamilies = []string{"amp_honeypot_bytes_total", "amp_honeypot_packets_total", "amp_honeypot_requests_total"}

// familyReaders is the set of families something reads: the watched
// families (rules, bundles, /dash panels), every string literal in the
// bench's non-test source, and unreadFamilies.
func familyReaders(t *testing.T, watched []string) map[string]bool {
	t.Helper()
	readers := map[string]bool{}
	for _, fam := range watched {
		readers[fam] = true
	}
	files, err := filepath.Glob("../../bench/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("bench sources: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, lit := range stringLiterals(t, parseGo(t, path)) {
			readers[lit] = true
		}
	}
	for _, fam := range unreadFamilies {
		readers[fam] = true
	}
	return readers
}

func parseGo(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stringLiterals lists the string literals under root, unquoted.
func stringLiterals(t *testing.T, root ast.Node) []string {
	t.Helper()
	var lits []string
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("unquote %s: %v", lit.Value, err)
			}
			lits = append(lits, s)
		}
		return true
	})
	return lits
}

// metricsSnapshot fetches and decodes /metrics, reporting false until the
// daemon answers.
func metricsSnapshot(url string) (map[string]any, bool) {
	res, err := http.Get(url)
	if err != nil {
		return nil, false
	}
	defer res.Body.Close()
	var snap map[string]any
	if res.StatusCode != http.StatusOK || json.NewDecoder(res.Body).Decode(&snap) != nil {
		return nil, false
	}
	return snap, true
}

// watchedFamilies reads newWatchdog's and watchRules' source and returns
// every metric family they name: the string first argument of each
// watch.Metric call, the Family of each watch.Counter literal, and each
// BundleHistory entry. It fails on a rule whose expression names
// no family the walk can read, so a new way of naming one cannot
// silently drop out of the check.
func watchedFamilies(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	str := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		return s, err == nil
	}
	isWatch := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "watch" && (name == "" || sel.Sel.Name == name)
	}
	field := func(lit *ast.CompositeLit, name string, pos int) (string, bool) {
		for i, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if k, ok := kv.Key.(*ast.Ident); ok && k.Name == name {
					return str(kv.Value)
				}
			} else if i == pos {
				return str(e)
			}
		}
		return "", false
	}
	families := func(root ast.Node) []string {
		var fams []string
		ast.Inspect(root, func(n ast.Node) bool {
			var s string
			ok := false
			switch n := n.(type) {
			case *ast.CallExpr:
				if isWatch(n.Fun, "") && len(n.Args) > 0 {
					s, ok = str(n.Args[0])
				}
			case *ast.CompositeLit:
				if isWatch(n.Type, "Counter") {
					s, ok = field(n, "Family", 0)
				}
			}
			if ok {
				fams = append(fams, s)
			}
			return true
		})
		return fams
	}
	var fams []string
	rules := 0
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "newWatchdog" && fd.Name.Name != "watchRules" {
			continue
		}
		fams = append(fams, families(fd)...)
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				arr, ok := n.Type.(*ast.ArrayType)
				if !ok || !isWatch(arr.Elt, "Rule") {
					break
				}
				for _, e := range n.Elts {
					rules++
					rule, ok := e.(*ast.CompositeLit)
					if !ok {
						t.Errorf("watch rule %d is not a literal this walk can read", rules)
						continue
					}
					if len(families(rule)) == 0 {
						name, _ := field(rule, "Name", -1)
						t.Errorf("watch rule %q names no metric family this walk can read", name)
					}
				}
			case *ast.AssignStmt:
				sel, ok := n.Lhs[0].(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "BundleHistory" {
					break
				}
				if lit, ok := n.Rhs[0].(*ast.CompositeLit); ok {
					for _, e := range lit.Elts {
						if s, ok := str(e); ok {
							fams = append(fams, s)
						}
					}
				}
			}
			return true
		})
	}
	if rules == 0 || len(fams) == 0 {
		t.Fatal("newWatchdog and watchRules name no rule or metric family")
	}
	return fams
}
