// Command bgpsim propagates a single announcement configuration over a
// simulated world and dumps the resulting catchments.
//
// Usage:
//
//	bgpsim -links 0,1,2,3,4,5,6                 # plain anycast
//	bgpsim -links 0,1 -prepend 0 -poison 1:4242 # prepend link 0, poison AS4242 on link 1
//	bgpsim -links 0,1 -paths 10                 # also dump 10 sample AS-paths
//	bgpsim -links 0,1 -mrt feed.mrt             # write the collector feed as MRT
//	bgpsim -links 0,1 -announce host:179        # announce over a live BGP session
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/bgpwire"
	"spooftrack/internal/core"
	"spooftrack/internal/measure"
	"spooftrack/internal/peering"
	"spooftrack/internal/topo"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 42, "world seed")
		numASes  = flag.Int("ases", 4000, "topology size")
		links    = flag.String("links", "0,1,2,3,4,5,6", "comma-separated links to announce from")
		prepend  = flag.String("prepend", "", "comma-separated links to prepend on (x4)")
		poison   = flag.String("poison", "", "link:ASN pairs to poison, comma-separated")
		paths    = flag.Int("paths", 0, "dump this many sample AS-paths")
		mrtPath  = flag.String("mrt", "", "write the simulated collector feed to this MRT file")
		announce = flag.String("announce", "", "announce the configuration over a BGP session to this address")
	)
	flag.Parse()

	wp := core.DefaultWorldParams(*seed)
	tp := topo.DefaultGenParams(*seed)
	tp.NumASes = *numASes
	wp.Topo = &tp
	w, err := core.BuildWorld(wp)
	if err != nil {
		fatal(err)
	}

	cfg, err := parseConfig(*links, *prepend, *poison)
	if err != nil {
		fatal(err)
	}
	out, err := w.Platform.Deploy(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("configuration: %v\n", cfg)
	fmt.Printf("routed: %d of %d ASes\n\n", out.NumRouted(), w.Graph.NumASes())
	catchments := out.Catchments()
	var ids []bgp.LinkID
	for l := range catchments {
		ids = append(ids, l)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Printf("%-12s %-28s %s\n", "link", "mux (provider AS)", "catchment size")
	for _, l := range ids {
		mux := w.Platform.Muxes()[l]
		fmt.Printf("%-12d %-28s %d\n", int(l),
			fmt.Sprintf("%s (AS%d)", mux.Spec.Name, w.Graph.ASN(mux.Provider)),
			len(catchments[l]))
	}

	if *mrtPath != "" {
		v := measure.ChooseVantages(w.Graph, *seed, 250, 0)
		obs := measure.Observation{BGPPaths: map[int][]topo.ASN{}}
		for _, c := range v.Collectors {
			if p := out.ASPath(c); p != nil {
				obs.BGPPaths[c] = p
			}
		}
		f, err := os.Create(*mrtPath)
		if err != nil {
			fatal(err)
		}
		if err := measure.ExportMRT(f, obs, w.Graph, uint32(time.Now().Unix())); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d collector paths to %s\n", len(obs.BGPPaths), *mrtPath)
	}

	if *announce != "" {
		sess, err := bgpwire.Dial(*announce, bgpwire.SessionConfig{
			LocalAS:  peering.PEERINGASN,
			BGPID:    uint32(peering.PEERINGASN),
			HoldTime: 30 * time.Second,
		})
		if err != nil {
			fatal(err)
		}
		defer sess.Close()
		for _, a := range cfg.Anns {
			u := &bgpwire.Update{
				Path:     a.InitialPath(peering.PEERINGASN),
				NextHop:  netip.MustParseAddr("203.0.113.1"),
				Prefixes: []netip.Prefix{measure.AnnouncedPrefix},
			}
			if err := sess.Announce(u); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("\nannounced %d configuration paths to %s (peer AS%d)\n",
			len(cfg.Anns), *announce, sess.PeerAS())
	}

	if *paths > 0 {
		fmt.Printf("\nsample AS-paths:\n")
		step := w.Graph.NumASes() / *paths
		if step == 0 {
			step = 1
		}
		shown := 0
		for i := 0; i < w.Graph.NumASes() && shown < *paths; i += step {
			p := out.ASPath(i)
			if p == nil {
				continue
			}
			strs := make([]string, len(p))
			for k, asn := range p {
				strs[k] = strconv.FormatUint(uint64(asn), 10)
			}
			fmt.Printf("  AS%-6d via link %d: %s\n", w.Graph.ASN(i), out.CatchmentOf(i), strings.Join(strs, " "))
			shown++
		}
	}
}

func parseConfig(links, prepend, poison string) (bgp.Config, error) {
	var cfg bgp.Config
	prepends := map[bgp.LinkID]bool{}
	if prepend != "" {
		for _, s := range strings.Split(prepend, ",") {
			l, err := parseLink(s)
			if err != nil {
				return cfg, fmt.Errorf("bad prepend link %q: %v", s, err)
			}
			prepends[l] = true
		}
	}
	poisons := map[bgp.LinkID][]topo.ASN{}
	if poison != "" {
		for _, pair := range strings.Split(poison, ",") {
			parts := strings.SplitN(pair, ":", 2)
			if len(parts) != 2 {
				return cfg, fmt.Errorf("bad poison pair %q (want link:ASN)", pair)
			}
			l, err := parseLink(parts[0])
			if err != nil {
				return cfg, fmt.Errorf("bad poison link %q: %v", parts[0], err)
			}
			asn, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 32)
			if err != nil {
				return cfg, fmt.Errorf("bad poison ASN %q: %v", parts[1], err)
			}
			poisons[l] = append(poisons[l], topo.ASN(asn))
		}
	}
	for _, s := range strings.Split(links, ",") {
		l, err := parseLink(s)
		if err != nil {
			return cfg, fmt.Errorf("bad link %q: %v", s, err)
		}
		ann := bgp.Announcement{Link: l}
		if prepends[ann.Link] {
			ann.Prepend = 4
		}
		ann.Poison = poisons[ann.Link]
		cfg.Anns = append(cfg.Anns, ann)
	}
	return cfg, nil
}

// parseLink parses one link number, refusing what a bgp.LinkID cannot
// hold: converting first would wrap -links 256 to link 0.
func parseLink(s string) (bgp.LinkID, error) {
	l, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if l < 0 || l >= bgp.MaxLinks {
		return 0, fmt.Errorf("link %d out of range [0, %d)", l, bgp.MaxLinks)
	}
	return bgp.LinkID(l), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bgpsim: %v\n", err)
	os.Exit(1)
}
