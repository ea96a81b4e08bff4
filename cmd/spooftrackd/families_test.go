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
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"
)

// TestWatchedFamiliesRegistered runs the daemon and checks that every
// metric family a watchdog rule reads, BundleHistory embeds or a /dash
// panel queries is on /metrics once its components are up: a rule,
// bundle entry or panel naming a family nothing registers would sit in
// "no data" forever.
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
		"stream_degraded", "stream_dropped_total", "stream_events_total", "stream_flush_lag_seconds"} {
		if !slices.Contains(want, fam) {
			t.Fatalf("%s is no longer among the checked families %v", fam, want)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cfg, err := parseFlags([]string{"-listen", addr, "-ases", "400", "-eval", "100ms", "-min-round", "40",
		"-probe-interval", "100ms", "-bundle-dir", t.TempDir(), "-log-level", "error"}, io.Discard)
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
			return
		}
	}
	t.Fatalf("families named by the watchdog or /dash but never registered: %v (of %v)", missing, want)
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

// watchedFamilies reads newWatchdog's source and returns every metric
// family it names: the string first argument of each watch.Metric and
// watch.Quantile call, the Family of each watch.Counter literal, and
// each BundleHistory entry. It fails on a rule whose expression names
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
		if !ok || fd.Name.Name != "newWatchdog" {
			continue
		}
		fams = families(fd)
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
						t.Errorf("newWatchdog rule %d is not a literal this walk can read", rules)
						continue
					}
					if len(families(rule)) == 0 {
						name, _ := field(rule, "Name", -1)
						t.Errorf("newWatchdog rule %q names no metric family this walk can read", name)
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
		t.Fatal("newWatchdog names no rule or metric family")
	}
	return fams
}
