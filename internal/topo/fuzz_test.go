package topo

import (
	"bytes"
	"errors"
	"fmt"
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

// TestReadCAIDABounded: an endless stream of valid links ends at the
// bound with the bound's error, before the reader's own failure past it.
func TestReadCAIDABounded(t *testing.T) {
	s := &endlessLinks{limit: maxCAIDABytes + 1<<20}
	if _, err := ReadCAIDA(s); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless relationship file: %v", err)
	}
}

// endlessLinks serves provider-customer links 1|2, 2|3, … one per line,
// each padded with trailing blanks to 64 KiB so the graph stays small,
// and fails once it has served limit bytes.
type endlessLinks struct {
	line          []byte
	next          uint32
	served, limit int64
}

func (s *endlessLinks) Read(p []byte) (int, error) {
	if s.served >= s.limit {
		return 0, errors.New("read past the decoder's bound")
	}
	n := 0
	for n < len(p) {
		if len(s.line) == 0 {
			s.next++
			s.line = []byte(fmt.Sprintf("%d|%d|-1%s\n", s.next, s.next+1, strings.Repeat(" ", 64<<10)))
		}
		c := copy(p[n:], s.line)
		s.line = s.line[c:]
		n += c
	}
	s.served += int64(n)
	return n, nil
}
