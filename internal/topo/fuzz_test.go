package topo

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCAIDA exercises the -topo-file loader against arbitrary text:
// it must never panic, and a graph it accepts must survive WriteCAIDA
// and a re-read unchanged — the same ASes, adjacencies, relationships
// and tier-1 marks.
func FuzzReadCAIDA(f *testing.F) {
	p := DefaultGenParams(5)
	p.NumASes = 60
	g, err := Generate(p)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCAIDA(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, in := range []string{
		"1|2|0\n1|3|-1\n2|4|-1\n3|5|-1\n", // tier-1s inferred
		"# tier1: 7\n",                    // a tier-1 with no links
		"# tier1:\n1|2|-1\n2|3|0\n",
		"# a comment\n\n1|2|-1\n  \n2|3|-1|extra\n",
		"1|2|-1\n1|2|0\n",
		"1|1|-1\n",
		"# tier1: 4294967295 0\n0|4294967295|0\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadCAIDA(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCAIDA(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCAIDA(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of the written graph: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back.asns, g.asns) || !reflect.DeepEqual(back.adj, g.adj) || !reflect.DeepEqual(back.tier1, g.tier1) {
			t.Fatalf("round trip changed the graph:\nread:\n%q\nwritten:\n%s", in, buf.String())
		}
	})
}
