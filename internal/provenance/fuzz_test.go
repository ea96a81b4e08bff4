package provenance_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/provenance"
	"spooftrack/internal/stream"
)

// streamLedger records a small live loop the way the daemon does: the
// evaluator's meta and rows, then rounds, reconfigurations and verdicts
// until it converges. Source 4 sends; six sources over five
// configurations and three links.
func streamLedger(t testing.TB) []byte {
	t.Helper()
	rows := [][]bgp.LinkID{
		{0, 0, 0, 1, 1, 2},
		{0, 1, 2, 0, 1, 2},
		{1, 1, 0, 0, 2, 2},
		{2, 0, 1, 2, 0, bgp.NoLink},
		{0, 0, 1, 1, 2, 2},
	}
	led := provenance.New(provenance.Options{})
	ev := stream.NewEvaluator(stream.Attribution{Catchments: rows, NumLinks: 3}, stream.EvalParams{})
	ev.OpenLedger(led)
	for round := 0; round < len(rows) && !ev.Converged(); round++ {
		pkts := make([]int64, 3)
		if l := rows[ev.Current()][4]; l != bgp.NoLink {
			pkts[l] = 100
		}
		ev.StepRecorded(led, pkts, false, nil, nil)
	}
	var buf bytes.Buffer
	if err := led.Export().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseExportReplay feeds arbitrary bytes to ParseExport and whatever
// it accepts to Replay, Explain and WriteDOT: a ledger read back from a
// file is untrusted, so each must answer with an error, never a panic.
// The seeds are a campaign ledger, a live-loop ledger, and corruptions of
// both that the checks must refuse.
func FuzzParseExportReplay(f *testing.F) {
	campaign, err := os.ReadFile(filepath.Join("testdata", "ledger.json"))
	if err != nil {
		f.Fatal(err)
	}
	live := streamLedger(f)
	f.Add(campaign)
	f.Add(live)
	for _, c := range inconsistentExports(string(campaign), string(live)) {
		f.Add([]byte(c.json))
	}
	f.Add([]byte(`{"events":null}`))
	f.Add([]byte(`{"events":[{}]}`))
	f.Add([]byte(`{"events":[{"kind":"deploy"}],"other":[1,{"x":2}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := provenance.ParseExport(bytes.NewReader(data))
		if err != nil {
			return
		}
		provenance.Replay(e)
		e.Explain(0)
		e.WriteDOT(io.Discard)
	})
}

// inconsistentExport is a ledger whose evidence disagrees with its meta.
type inconsistentExport struct {
	name, json string
}

// inconsistentExports derives, from a valid campaign ledger and a valid
// live-loop ledger, exports whose rows, configuration ids or rounds
// disagree with their meta.
func inconsistentExports(campaign, live string) []inconsistentExport {
	return []inconsistentExport{
		{"row_config_out_of_range", strings.Replace(campaign, `"config": 1,
        "catchment"`, `"config": 2,
        "catchment"`, 1)},
		{"row_too_short", strings.Replace(campaign, `0,
          0,
          1
        ]`, `0,
          0
        ]`, 1)},
		{"row_link_undeclared", strings.Replace(campaign, `0,
          0,
          1
        ]`, `0,
          0,
          2
        ]`, 1)},
		{"row_link_below_nolink", strings.Replace(campaign, `0,
          0,
          1
        ]`, `0,
          -5,
          1
        ]`, 1)},
		{"configuration_without_row", strings.Replace(campaign, `"num_configs": 2`, `"num_configs": 3`, 1)},
		{"no_configurations", strings.Replace(campaign, `"num_configs": 2`, `"num_configs": 0`, 1)},
		{"negative_sources", strings.Replace(campaign, `"num_sources": 3`, `"num_sources": -3`, 1)},
		{"deploy_out_of_range", strings.Replace(campaign, `"config": 0,
        "key"`, `"config": 7,
        "key"`, 1)},
		{"round_config_out_of_range", strings.Replace(live, `"round": {
        "round": 1,
        "config": 0`, `"round": {
        "round": 1,
        "config": 9`, 1)},
		{"reconfig_chosen_out_of_range", replaceField(live, `"chosen": `, "-1")},
		{"initial_config_out_of_range", strings.Replace(live, `"num_links": 3`, `"num_links": 3,
        "initial_config": 5`, 1)},
	}
}

// replaceField replaces the value after the first occurrence of field
// (up to the line end) with v.
func replaceField(s, field, v string) string {
	i := strings.Index(s, field)
	if i < 0 {
		return s
	}
	j := i + len(field)
	end := strings.IndexAny(s[j:], ",\n")
	return s[:j] + v + s[j+end:]
}

// TestReplayRejectsInconsistentExport: each corruption parses but is a
// Replay error, while the ledgers it was cut from replay clean.
func TestReplayRejectsInconsistentExport(t *testing.T) {
	campaign, err := os.ReadFile(filepath.Join("testdata", "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	live := streamLedger(t)
	for name, data := range map[string][]byte{"campaign": campaign, "live": live} {
		e, err := provenance.ParseExport(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := provenance.Replay(e)
		if err != nil || !res.Reproduced {
			t.Fatalf("%s: replay %+v, %v", name, res, err)
		}
		if name == "live" && (res.Rounds == 0 || res.Reconfigs == 0) {
			t.Fatalf("live ledger replayed %d rounds, %d reconfigurations; the corruptions need both", res.Rounds, res.Reconfigs)
		}
	}
	for _, c := range inconsistentExports(string(campaign), string(live)) {
		t.Run(c.name, func(t *testing.T) {
			if c.json == string(campaign) || c.json == string(live) {
				t.Fatal("corruption did not apply")
			}
			e, err := provenance.ParseExport(strings.NewReader(c.json))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if res, err := provenance.Replay(e); err == nil {
				t.Fatalf("replayed without error: %+v", res)
			}
		})
	}
}

// TestParseExportRejectsMalformedEvents: an event whose kind and payload
// disagree is refused at parse time, and so is an export past the size
// bound.
func TestParseExportRejectsMalformedEvents(t *testing.T) {
	for _, in := range []string{
		`{"events":[{"kind":"deploy"}]}`,
		`{"events":[{"kind":"deploy","retry":{"config":0}}]}`,
		`{"events":[{"kind":"retry","retry":{},"deploy":{}}]}`,
		`{"events":{}}`,
		`[]`,
	} {
		if _, err := provenance.ParseExport(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed", in)
		}
	}
	e, err := provenance.ParseExport(strings.NewReader(`{"events":null}`))
	if err != nil || len(e.Events) != 0 {
		t.Fatalf("null events: %+v, %v", e, err)
	}
	// A row longer than the bound: the decoder stops at the bound instead
	// of reading on.
	big := io.MultiReader(strings.NewReader(`{"events":[{"kind":"catchment_row","row":{"config":0,"catchment":[0`),
		&repeatReader{s: ",0"})
	if _, err := provenance.ParseExport(big); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("unbounded export: %v", err)
	}
}

// repeatReader yields s forever.
type repeatReader struct {
	s   string
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.s[r.off]
		r.off = (r.off + 1) % len(r.s)
	}
	return len(p), nil
}
