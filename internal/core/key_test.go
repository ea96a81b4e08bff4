package core

import (
	"hash/fnv"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/topo"
)

// TestConfigKeyDigest pins bgp.Config.Key byte for byte: the outcome
// cache and the provenance ledger key on it, so a change in its text
// changes what a ledger records and which configurations share an
// outcome. It hashes the key of every configuration of the default
// world's plan (locations, prepending, poisoning), then of hand-built
// configurations that plan does not produce: announcements out of link
// order, poison lists, communities of both actions, large ASNs and
// prepends, and the empty configuration.
func TestConfigKeyDigest(t *testing.T) {
	const (
		planKeys = 705
		golden   = 0x1aa366bf8ab74bfb
	)
	w, err := BuildWorld(DefaultWorldParams(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != planKeys {
		t.Fatalf("default plan has %d configurations, want %d", len(plan), planKeys)
	}
	cfgs := make([]bgp.Config, 0, len(plan)+8)
	for _, pc := range plan {
		cfgs = append(cfgs, pc.Config)
	}
	cfgs = append(cfgs,
		bgp.Config{},
		bgp.Config{Anns: []bgp.Announcement{{Link: 6}, {Link: 0, Prepend: 3}, {Link: 3}}},
		bgp.Config{Anns: []bgp.Announcement{
			{Link: 5, Poison: []topo.ASN{64999, 7, 4294967294}},
			{Link: 1, Prepend: 4, Poison: []topo.ASN{3356}},
			{Link: 2, Communities: []bgp.Community{
				{Operator: 174, Action: bgp.ActNoExportTo, Target: 3356},
				{Operator: 1299, Action: bgp.ActPrependTo, Target: 4294967295},
			}},
		}},
		bgp.Config{Anns: []bgp.Announcement{
			{Link: 126, Prepend: 1000000},
			{Link: 4, Poison: []topo.ASN{2, 1}, Communities: []bgp.Community{{Operator: 9, Action: bgp.ActPrependTo, Target: 8}}},
			{Link: 0},
		}},
		bgp.Config{Anns: []bgp.Announcement{{Link: 3, Communities: []bgp.Community{}}, {Link: 2, Poison: []topo.ASN{}}}},
	)
	h := fnv.New64a()
	for _, c := range cfgs {
		h.Write([]byte(c.Key()))
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); got != golden {
		t.Errorf("key digest %#x over %d configurations, want %#x", got, len(cfgs), uint64(golden))
	}
}
