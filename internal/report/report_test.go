package report

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/topo"
)

// fixture builds a 4-source scenario: sources 0,1 share a cluster;
// source 2 is the attacker (all volume follows its catchment).
func fixture() Input {
	catchments := [][]bgp.LinkID{
		{0, 0, 1, bgp.NoLink},
		{1, 1, 0, 0},
	}
	volumes := [][]float64{
		{0, 5}, // config 0: all volume on link 1 (source 2's catchment)
		{5, 0}, // config 1: all volume on link 0
	}
	part := cluster.New(4)
	for _, row := range catchments {
		part.Refine(row)
	}
	return Input{
		Sources:          []int{10, 11, 12, 13},
		ASNOf:            func(i int) topo.ASN { return topo.ASN(i * 100) },
		Catchments:       catchments,
		Volumes:          volumes,
		Partition:        part,
		CandidateIndexes: []int{2, 0},
		Now:              time.Unix(1700000000, 0).UTC(),
	}
}

func TestBuildEvidence(t *testing.T) {
	rep, err := Build(fixture())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Configurations != 2 || rep.SourcesAnalyzed != 4 {
		t.Fatalf("header %+v", rep)
	}
	if len(rep.Candidates) != 2 {
		t.Fatalf("got %d candidates", len(rep.Candidates))
	}
	// Source 2 (AS1200) carried 100% of volume in both configs and must
	// rank first.
	first := rep.Candidates[0]
	if first.ASN != 1200 {
		t.Fatalf("first candidate AS%d, want AS1200", first.ASN)
	}
	if first.ConfigsObserved != 2 || first.ConfigsWithTraffic != 2 {
		t.Fatalf("evidence counts %+v", first)
	}
	if first.MeanVolumeShare != 1.0 {
		t.Fatalf("volume share %v, want 1.0", first.MeanVolumeShare)
	}
	if first.ClusterSize != 1 || len(first.ClusterASNs) != 0 {
		t.Fatalf("cluster info %+v", first)
	}
	// Source 0 shares a cluster with source 1.
	second := rep.Candidates[1]
	if second.ASN != 1000 || second.ClusterSize != 2 {
		t.Fatalf("second candidate %+v", second)
	}
	if len(second.ClusterASNs) != 1 || second.ClusterASNs[0] != 1100 {
		t.Fatalf("cluster mates %v", second.ClusterASNs)
	}
}

func TestBuildValidatesInput(t *testing.T) {
	in := fixture()
	in.Volumes = in.Volumes[:1]
	if _, err := Build(in); err == nil {
		t.Fatal("mismatched rows accepted")
	}
}

func TestRenderText(t *testing.T) {
	rep, err := Build(fixture())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "AS1200") || !strings.Contains(s, "cluster of 1") {
		t.Fatalf("text render missing evidence:\n%s", s)
	}
	if !strings.Contains(s, "2023-11-14") {
		t.Fatalf("timestamp missing:\n%s", s)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	rep, err := Build(fixture())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Candidates) != 2 || got.Candidates[0].ASN != 1200 {
		t.Fatalf("JSON round trip lost data: %+v", got)
	}
}

func TestCandidateOrdering(t *testing.T) {
	cs := []Candidate{
		{ASN: 3, MeanVolumeShare: 0.5, ClusterSize: 1},
		{ASN: 1, MeanVolumeShare: 0.9, ClusterSize: 5},
		{ASN: 2, MeanVolumeShare: 0.9, ClusterSize: 2},
	}
	sortCandidates(cs)
	if cs[0].ASN != 2 || cs[1].ASN != 1 || cs[2].ASN != 3 {
		t.Fatalf("order %v %v %v", cs[0].ASN, cs[1].ASN, cs[2].ASN)
	}
}
