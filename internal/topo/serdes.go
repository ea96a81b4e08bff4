package topo

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The CAIDA AS-relationship serialization format:
//
//	# comment lines start with '#'
//	# tier1: 1 2 3          (extension: explicit tier-1 marking)
//	<provider>|<customer>|-1
//	<peer>|<peer>|0
//
// WriteCAIDA emits links sorted for deterministic output; ReadCAIDA accepts
// any order. If no "# tier1:" header is present, tier-1 status is inferred
// as "has no providers and at least one peer".

// WriteCAIDA serializes the graph in CAIDA AS-relationship format.
func WriteCAIDA(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	t1 := g.Tier1s()
	if len(t1) > 0 {
		names := make([]string, len(t1))
		for i, idx := range t1 {
			names[i] = strconv.FormatUint(uint64(g.ASN(idx)), 10)
		}
		if _, err := fmt.Fprintf(bw, "# tier1: %s\n", strings.Join(names, " ")); err != nil {
			return err
		}
	}
	type line struct {
		a, b ASN
		rel  int
	}
	var lines []line
	for i := 0; i < g.NumASes(); i++ {
		for _, n := range g.Neighbors(i) {
			switch n.Rel {
			case RelCustomer:
				lines = append(lines, line{g.ASN(i), g.ASN(n.Idx), -1})
			case RelPeer:
				if g.ASN(i) < g.ASN(n.Idx) { // emit each peer link once
					lines = append(lines, line{g.ASN(i), g.ASN(n.Idx), 0})
				}
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].a != lines[j].a {
			return lines[i].a < lines[j].a
		}
		return lines[i].b < lines[j].b
	})
	for _, l := range lines {
		if _, err := fmt.Fprintf(bw, "%d|%d|%d\n", l.a, l.b, l.rel); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxCAIDABytes bounds what ReadCAIDA reads; an 80 000-AS topogen graph
// writes 2.2 MB.
const maxCAIDABytes = 64 << 20

// ReadCAIDA parses a graph from CAIDA AS-relationship format. It reads
// at most maxCAIDABytes.
func ReadCAIDA(r io.Reader) (*Graph, error) {
	lr := &io.LimitedReader{R: r, N: maxCAIDABytes + 1}
	g, err := readCAIDA(lr)
	if lr.N == 0 {
		return nil, fmt.Errorf("topo: relationship file exceeds %d bytes", maxCAIDABytes)
	}
	return g, err
}

func readCAIDA(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	var explicitTier1 []ASN
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# tier1:"); ok {
				for _, f := range strings.Fields(rest) {
					v, err := strconv.ParseUint(f, 10, 32)
					if err != nil {
						return nil, fmt.Errorf("topo: line %d: bad tier-1 ASN %q: %v", lineNo, f, err)
					}
					explicitTier1 = append(explicitTier1, ASN(v))
				}
			}
			continue
		}
		parts := strings.Split(text, "|")
		if len(parts) < 3 {
			return nil, fmt.Errorf("topo: line %d: malformed link %q", lineNo, text)
		}
		a, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("topo: line %d: bad ASN %q: %v", lineNo, parts[0], err)
		}
		c, err := strconv.ParseUint(parts[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("topo: line %d: bad ASN %q: %v", lineNo, parts[1], err)
		}
		switch strings.TrimSpace(parts[2]) {
		case "-1":
			err = b.AddP2C(ASN(a), ASN(c))
		case "0":
			err = b.AddP2P(ASN(a), ASN(c))
		default:
			return nil, fmt.Errorf("topo: line %d: unknown relationship %q", lineNo, parts[2])
		}
		if err != nil {
			return nil, fmt.Errorf("topo: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, asn := range explicitTier1 {
		b.MarkTier1(asn)
	}
	g := b.Freeze()
	if len(explicitTier1) == 0 {
		inferTier1(g)
	}
	return g, nil
}

// inferTier1 marks as tier-1 every AS that has no providers and at least
// one peer. Mutates the graph's tier-1 flags in place (only used during
// deserialization, before the graph escapes).
func inferTier1(g *Graph) {
	for i := range g.adj {
		hasProvider, hasPeer := false, false
		for _, n := range g.adj[i] {
			switch n.Rel {
			case RelProvider:
				hasProvider = true
			case RelPeer:
				hasPeer = true
			}
		}
		g.tier1[i] = !hasProvider && hasPeer
	}
}
