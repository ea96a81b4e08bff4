// Command topogen generates a synthetic AS-level Internet topology and
// writes it in CAIDA AS-relationship format, or summarizes an existing
// topology file. A generated topology is always validated before it is
// written. The file it writes is what spooftrackd -topo-file loads, so
// every process of a multi-process deployment builds the same world.
//
// Usage:
//
//	topogen -ases 4000 -seed 1 -out topology.txt
//	topogen -in topology.txt            # print summary statistics
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"spooftrack/internal/topo"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "topogen:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError is a bad invocation; main exits 2 on it, as flag does.
type usageError struct{ error }

// run generates (or, with -in, reads) one topology. The CAIDA text goes
// to stdout unless -out names a file; the summary goes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "generator seed")
	numASes := fs.Int("ases", 4000, "number of ASes")
	outPath := fs.String("out", "", "output path (default stdout)")
	inPath := fs.String("in", "", "summarize an existing CAIDA file instead of generating")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}

	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err := topo.ReadCAIDA(f)
		if err != nil {
			return err
		}
		summarize(stderr, g)
		return nil
	}

	p := topo.DefaultGenParams(*seed)
	p.NumASes = *numASes
	g, err := topo.Generate(p)
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("generated topology invalid: %w", err)
	}
	if *outPath == "" {
		return topo.WriteCAIDA(stdout, g)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := topo.WriteCAIDA(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d ASes, %d links to %s\n", g.NumASes(), g.NumLinks(), *outPath)
	summarize(stderr, g)
	return nil
}

func summarize(w io.Writer, g *topo.Graph) {
	transit := g.TransitASes()
	var coneSizes []int
	for _, i := range transit {
		coneSizes = append(coneSizes, g.CustomerConeSize(i))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(coneSizes)))
	peerLinks, c2pLinks := 0, 0
	for i := 0; i < g.NumASes(); i++ {
		for _, n := range g.Neighbors(i) {
			if n.Idx < i {
				continue
			}
			if n.Rel == topo.RelPeer {
				peerLinks++
			} else {
				c2pLinks++
			}
		}
	}
	fmt.Fprintf(w, "ASes: %d  links: %d (%d transit, %d peering)\n",
		g.NumASes(), g.NumLinks(), c2pLinks, peerLinks)
	fmt.Fprintf(w, "tier-1: %d  transit ASes: %d  stubs: %d\n",
		len(g.Tier1s()), len(transit), g.NumASes()-len(transit))
	top := coneSizes
	if len(top) > 10 {
		top = top[:10]
	}
	fmt.Fprintf(w, "largest customer cones: %v\n", top)
}
