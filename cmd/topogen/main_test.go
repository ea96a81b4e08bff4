package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"spooftrack/internal/topo"
)

// TestWriteThenSummarize: -out writes the generated topology, ASNs and
// links intact, and -in reads it back and prints its summary.
func TestWriteThenSummarize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.txt")
	var stderr bytes.Buffer
	if err := run([]string{"-ases", "300", "-seed", "42", "-out", path}, io.Discard, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	p := topo.DefaultGenParams(42)
	p.NumASes = 300
	want, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := topo.ReadCAIDA(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(links(got), links(want)) {
		t.Fatalf("read back %d ASes / %d links, generated %d / %d",
			got.NumASes(), got.NumLinks(), want.NumASes(), want.NumLinks())
	}

	stderr.Reset()
	if err := run([]string{"-in", path}, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stderr.String(), fmt.Sprintf("ASes: 300  links: %d ", want.NumLinks())) {
		t.Fatalf("summary of %s:\n%s", path, stderr.String())
	}
}

// links lists g's ASNs and its links by ASN, sorted, so two graphs
// compare equal whatever their dense index order.
func links(g *topo.Graph) []string {
	var out []string
	for i := 0; i < g.NumASes(); i++ {
		out = append(out, fmt.Sprint("AS", g.ASN(i)))
		for _, n := range g.Neighbors(i) {
			out = append(out, fmt.Sprint(g.ASN(i), n.Rel, g.ASN(n.Idx)))
		}
	}
	slices.Sort(out)
	return out
}

// TestDocumentedInvocationsRun: every topogen command line the README
// shows runs, its output redirected into a temporary directory (a
// repeated flag overrides the earlier one).
func TestDocumentedInvocationsRun(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	runs := invocations(string(data), "go run ./cmd/topogen")
	if len(runs) == 0 {
		t.Fatal("README.md shows no topogen command line")
	}
	for _, args := range runs {
		out := filepath.Join(t.TempDir(), "topo.txt")
		if err := run(append(args, "-out", out), io.Discard, io.Discard); err != nil {
			t.Errorf("topogen %s: %v", strings.Join(args, " "), err)
		}
	}
}

// invocations returns the arguments of every line of doc that runs
// prog, in a code block or a table cell, up to a comment or a closing
// backtick.
func invocations(doc, prog string) [][]string {
	var runs [][]string
	for _, line := range strings.Split(doc, "\n") {
		i := strings.Index(line, prog)
		if i < 0 {
			continue
		}
		rest := line[i+len(prog):]
		if rest != "" && rest[0] != ' ' && rest[0] != '`' {
			continue // another program sharing the prefix
		}
		if j := strings.IndexAny(rest, "`#"); j >= 0 {
			rest = rest[:j]
		}
		runs = append(runs, strings.Fields(rest))
	}
	return runs
}
