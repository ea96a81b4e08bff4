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
// family it names: the first argument of each watch.Metric, Series,
// Quantile and VecSum call, and each BundleHistory entry.
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
	var fams []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "newWatchdog" {
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					break
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "watch" {
					if s, ok := str(n.Args[0]); ok {
						fams = append(fams, s)
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
	if len(fams) == 0 {
		t.Fatal("newWatchdog names no metric family")
	}
	return fams
}
