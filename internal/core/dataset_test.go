package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/sched"
)

func datasetCampaign(t *testing.T) *Campaign {
	t.Helper()
	w := smallWorld(t, 31)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	camp, err := w.RunCampaign(plan[:20], CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

func TestDatasetRoundTrip(t *testing.T) {
	camp := datasetCampaign(t)
	d := camp.Dataset()
	var buf bytes.Buffer
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Configs) != len(d.Configs) {
		t.Fatalf("configs %d, want %d", len(d2.Configs), len(d.Configs))
	}
	if len(d2.Header.SourceASNs) != len(d.Header.SourceASNs) {
		t.Fatal("sources differ")
	}
	for i := range d.Configs {
		if d.Configs[i].Phase != d2.Configs[i].Phase {
			t.Fatal("phase lost")
		}
		for k := range d.Configs[i].Catchments {
			if d.Configs[i].Catchments[k] != d2.Configs[i].Catchments[k] {
				t.Fatal("catchment lost")
			}
		}
	}
}

func TestDatasetMatrixMatchesCampaign(t *testing.T) {
	camp := datasetCampaign(t)
	d := camp.Dataset()
	matrix := d.CatchmentMatrix()
	for c := range matrix {
		for k := range matrix[c] {
			if matrix[c][k] != camp.Catchments[c][k] {
				t.Fatalf("matrix[%d][%d] = %d, want %d", c, k, matrix[c][k], camp.Catchments[c][k])
			}
		}
	}
	// Clustering from the dataset equals clustering from the campaign.
	p1 := cluster.New(len(d.Header.SourceASNs))
	for _, row := range matrix {
		p1.Refine(row)
	}
	p2 := camp.FinalPartition()
	if p1.NumClusters() != p2.NumClusters() {
		t.Fatalf("dataset clustering %d clusters, campaign %d", p1.NumClusters(), p2.NumClusters())
	}
}

func TestReadDatasetRejectsGarbage(t *testing.T) {
	cases := []string{
		"",           // no header
		"not json\n", // bad header
		`{"version":99,"muxes":["a"],"source_asns":[1]}` + "\n", // bad version
		`{"version":1,"muxes":[],"source_asns":[1]}` + "\n",     // no muxes
		// more muxes than a link id holds (the catchments are fine: the
		// header itself must be refused):
		`{"version":1,"muxes":[` + strings.Repeat(`"m",`, bgp.MaxLinks) + `"m"],"source_asns":[1]}` + "\n" +
			`{"phase":"locations","announcements":[{"link":0}],"catchments":[0]}` + "\n",
		// catchment length mismatch:
		`{"version":1,"muxes":["a"],"source_asns":[1,2]}` + "\n" +
			`{"phase":"locations","announcements":[{"link":0}],"catchments":[0]}` + "\n",
		// out-of-range link:
		`{"version":1,"muxes":["a"],"source_asns":[1]}` + "\n" +
			`{"phase":"locations","announcements":[{"link":0}],"catchments":[3]}` + "\n",
		// no announcements:
		`{"version":1,"muxes":["a"],"source_asns":[1]}` + "\n" +
			`{"phase":"locations","announcements":[],"catchments":[0]}` + "\n",
		// unknown announcement link:
		`{"version":1,"muxes":["a"],"source_asns":[1]}` + "\n" +
			`{"phase":"locations","announcements":[{"link":5}],"catchments":[0]}` + "\n",
	}
	for i, in := range cases {
		if _, err := ReadDataset(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Exactly MaxLinks muxes is the most a dataset may have.
	most := `{"version":1,"muxes":[` + strings.Repeat(`"m",`, bgp.MaxLinks-1) + `"m"],"source_asns":[1]}` + "\n" +
		`{"phase":"locations","announcements":[{"link":126}],"catchments":[126]}` + "\n"
	d, err := ReadDataset(strings.NewReader(most))
	if err != nil {
		t.Fatalf("%d muxes rejected: %v", bgp.MaxLinks, err)
	}
	if got := d.CatchmentMatrix()[0][0]; got != 126 {
		t.Fatalf("link 126 read back as %d", got)
	}
}

// TestReadDatasetBounded: an endless stream of valid records ends at
// the bound with the bound's error, before the reader's own failure
// past it. Each record is padded with insignificant whitespace, so the
// decoded dataset stays small.
func TestReadDatasetBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine decoding 256 MiB: nothing to race, and 40 s under the detector")
	}
	s := &endlessStream{
		head:  []byte(`{"version":1,"muxes":["a"],"source_asns":[1]}` + "\n"),
		rec:   []byte(`{"phase":"locations","announcements":[{"link":0}],"catchments":[0]` + strings.Repeat(" ", 64<<10) + "}\n"),
		limit: maxDatasetBytes + 1<<20,
	}
	if _, err := ReadDataset(s); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless dataset: %v", err)
	}
}

// endlessStream serves head once, then rec over and over, and fails once
// it has served limit bytes.
type endlessStream struct {
	head, rec     []byte
	off           int
	served, limit int64
}

func (s *endlessStream) Read(p []byte) (int, error) {
	if s.served >= s.limit {
		return 0, errors.New("read past the decoder's bound")
	}
	n := copy(p, s.head)
	s.head = s.head[n:]
	for n < len(p) {
		c := copy(p[n:], s.rec[s.off:])
		s.off = (s.off + c) % len(s.rec)
		n += c
	}
	s.served += int64(n)
	return n, nil
}

func TestDatasetDrivesScheduling(t *testing.T) {
	camp := datasetCampaign(t)
	var buf bytes.Buffer
	if err := WriteDataset(&buf, camp.Dataset()); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The exported matrix feeds the Fig. 8 machinery directly.
	traj, order := sched.GreedyTrajectory(d.CatchmentMatrix(), 5)
	if len(traj) != 5 || len(order) != 5 {
		t.Fatal("greedy over dataset failed")
	}
	if traj[4] > traj[0] {
		t.Fatal("greedy trajectory not improving")
	}
	_ = bgp.NoLink
}

// FuzzReadDataset feeds the §VI dataset import arbitrary bytes. Whatever
// it accepts must survive a round trip: written back out and read again,
// it decodes to an equal Dataset. The corpus starts from a small truth
// campaign's export, one configuration per plan phase, and the rejected
// shapes of TestReadDatasetRejectsGarbage.
func FuzzReadDataset(f *testing.F) {
	w := measureWorld(f, 1, false)
	plan, err := w.DefaultPlan()
	if err != nil {
		f.Fatal(err)
	}
	phases := []sched.PlannedConfig{plan[0], plan[sched.PhaseEnd(plan, sched.PhaseLocations)], plan[len(plan)-1]}
	camp, err := w.RunCampaign(phases, CampaignOptions{UseTruth: true})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, camp.Dataset()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"muxes":["a"],"source_asns":[1]}` + "\n" +
		`{"phase":"poisoning","announcements":[{"link":0,"prepend":2,"poison":[7]}],"catchments":[-1]}` + "\n"))
	// Found by this target: an empty poison list decoded non-nil and came
	// back nil, as WriteDataset omits it.
	f.Add([]byte(`{"version":1,"muxes":["0"],"source_asns":[0]} {"announcements":[{"poison":[]}],"catchments":[0]}`))
	f.Add([]byte(`{"version":1,"muxes":["a"],"source_asns":[1,2]}` + "\n" +
		`{"phase":"locations","announcements":[{"link":0}],"catchments":[0]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteDataset(&out, d); err != nil {
			t.Fatalf("accepted dataset does not encode: %v", err)
		}
		again, err := ReadDataset(&out)
		if err != nil {
			t.Fatalf("re-encoded dataset rejected: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("round trip changed the dataset:\n%+v\n%+v", d, again)
		}
	})
}
