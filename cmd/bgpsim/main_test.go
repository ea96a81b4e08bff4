package main

import (
	"strings"
	"testing"

	"spooftrack/internal/bgp"
)

// TestParseConfigLinkRange: a link number that does not fit a
// bgp.LinkID is refused wherever it appears, never wrapped (256 would
// become link 0, 128 link -128).
func TestParseConfigLinkRange(t *testing.T) {
	cases := []struct {
		links, prepend, poison string
		wantErr                string // substring; "" = accepted
	}{
		{links: "0,1,126"},
		{links: "0,1", prepend: "1", poison: "0:4242"},
		{links: "256", wantErr: "bad link"},
		{links: "127", wantErr: "bad link"},
		{links: "-1", wantErr: "bad link"},
		{links: "0,x", wantErr: "bad link"},
		{links: "0", prepend: "256", wantErr: "bad prepend link"},
		{links: "0", prepend: "-129", wantErr: "bad prepend link"},
		{links: "0", poison: "128:4242", wantErr: "bad poison link"},
		{links: "0", poison: "0", wantErr: "bad poison pair"},
	}
	for _, tc := range cases {
		cfg, err := parseConfig(tc.links, tc.prepend, tc.poison)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("parseConfig(%q, %q, %q): %v", tc.links, tc.prepend, tc.poison, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseConfig(%q, %q, %q) = %+v, %v; want an error containing %q",
				tc.links, tc.prepend, tc.poison, cfg, err, tc.wantErr)
		}
	}
	cfg, err := parseConfig("0,1", "1", "0:4242")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Anns) != 2 || cfg.Anns[0].Link != 0 || cfg.Anns[1].Link != bgp.LinkID(1) ||
		cfg.Anns[1].Prepend != 4 || len(cfg.Anns[0].Poison) != 1 || cfg.Anns[0].Poison[0] != 4242 {
		t.Fatalf("parseConfig(0,1 / 1 / 0:4242) = %+v", cfg)
	}
}
