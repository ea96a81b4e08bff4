// Package report turns localization output into the operator-facing
// artifacts the paper motivates in §I: identifying networks that do not
// deploy ingress filtering (BCP38) "helps Internet bodies focus efforts
// and drive adoption of best practices", and feeds automated mitigation.
// An Evidence report documents, per candidate network, why the
// correlation implicates it: how many configurations observed it, the
// volume share its catchment links carried, and its final cluster.
package report

import (
	"fmt"
	"strings"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/topo"
)

// Candidate is the evidence collected for one implicated network.
type Candidate struct {
	// ASN of the candidate network.
	ASN topo.ASN `json:"asn"`
	// ClusterSize is the size of the candidate's final cluster; the
	// localization cannot distinguish within a cluster, so this is the
	// precision bound.
	ClusterSize int `json:"cluster_size"`
	// ClusterASNs lists the other networks in the same cluster.
	ClusterASNs []topo.ASN `json:"cluster_asns"`
	// ConfigsObserved is in how many configurations the candidate's
	// catchment was known.
	ConfigsObserved int `json:"configs_observed"`
	// ConfigsWithTraffic is in how many of those its ingress link
	// carried spoofed traffic — the correlation that kept it a
	// candidate.
	ConfigsWithTraffic int `json:"configs_with_traffic"`
	// MeanVolumeShare is the average fraction of per-configuration
	// spoofed volume arriving on the candidate's links.
	MeanVolumeShare float64 `json:"mean_volume_share"`
}

// Report is a full localization evidence report.
type Report struct {
	// GeneratedAt stamps the report.
	GeneratedAt time.Time `json:"generated_at"`
	// Configurations is the campaign length correlated over.
	Configurations int `json:"configurations"`
	// SourcesAnalyzed is the size of the source universe.
	SourcesAnalyzed int `json:"sources_analyzed"`
	// Candidates, strongest evidence first.
	Candidates []Candidate `json:"candidates"`
}

// Input bundles what Build needs.
type Input struct {
	// Sources maps source positions to dense AS indices.
	Sources []int
	// ASNOf resolves a dense index to its ASN.
	ASNOf func(int) topo.ASN
	// Catchments is the campaign's per-config source catchments.
	Catchments [][]bgp.LinkID
	// Volumes is the measured per-config, per-link spoofed volume.
	Volumes [][]float64
	// Partition is the final cluster partition.
	Partition *cluster.Partition
	// CandidateIndexes are the source positions surviving correlation.
	CandidateIndexes []int
	// Now stamps the report (defaults to time.Now).
	Now time.Time
}

// Build assembles the evidence report.
func Build(in Input) (*Report, error) {
	if len(in.Catchments) != len(in.Volumes) {
		return nil, fmt.Errorf("report: %d catchment rows, %d volume rows", len(in.Catchments), len(in.Volumes))
	}
	now := in.Now
	if now.IsZero() {
		now = time.Now()
	}
	rep := &Report{
		GeneratedAt:     now,
		Configurations:  len(in.Catchments),
		SourcesAnalyzed: len(in.Sources),
	}
	members := in.Partition.Members()
	for _, k := range in.CandidateIndexes {
		c := Candidate{ASN: in.ASNOf(in.Sources[k])}
		cl := in.Partition.ClusterOf(k)
		c.ClusterSize = len(members[cl])
		for _, other := range members[cl] {
			if other != k {
				c.ClusterASNs = append(c.ClusterASNs, in.ASNOf(in.Sources[other]))
			}
		}
		shareSum := 0.0
		for cc := range in.Catchments {
			l := in.Catchments[cc][k]
			if l == bgp.NoLink {
				continue
			}
			c.ConfigsObserved++
			total := 0.0
			for _, v := range in.Volumes[cc] {
				total += v
			}
			if int(l) < len(in.Volumes[cc]) && in.Volumes[cc][l] > 0 {
				c.ConfigsWithTraffic++
				if total > 0 {
					shareSum += in.Volumes[cc][l] / total
				}
			}
		}
		if c.ConfigsObserved > 0 {
			c.MeanVolumeShare = shareSum / float64(c.ConfigsObserved)
		}
		rep.Candidates = append(rep.Candidates, c)
	}
	// Strongest evidence first: higher volume share, then smaller
	// cluster (tighter localization), then ASN for determinism.
	sortCandidates(rep.Candidates)
	return rep, nil
}

func sortCandidates(cs []Candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && candidateLess(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func candidateLess(a, b Candidate) bool {
	if a.MeanVolumeShare != b.MeanVolumeShare {
		return a.MeanVolumeShare > b.MeanVolumeShare
	}
	if a.ClusterSize != b.ClusterSize {
		return a.ClusterSize < b.ClusterSize
	}
	return a.ASN < b.ASN
}

// String renders the report as an operator-readable summary.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Spoofed-traffic localization report (%s)\n", r.GeneratedAt.Format(time.RFC3339))
	fmt.Fprintf(&sb, "correlated %d configurations over %d source networks\n",
		r.Configurations, r.SourcesAnalyzed)
	fmt.Fprintf(&sb, "%d candidate network(s):\n", len(r.Candidates))
	for _, c := range r.Candidates {
		fmt.Fprintf(&sb, "  AS%-8d volume share %.1f%%  traffic in %d/%d observed configs  cluster of %d",
			c.ASN, c.MeanVolumeShare*100, c.ConfigsWithTraffic, c.ConfigsObserved, c.ClusterSize)
		if len(c.ClusterASNs) > 0 && len(c.ClusterASNs) <= 5 {
			fmt.Fprintf(&sb, " (with")
			for _, a := range c.ClusterASNs {
				fmt.Fprintf(&sb, " AS%d", a)
			}
			fmt.Fprintf(&sb, ")")
		}
		fmt.Fprintln(&sb)
	}
	return sb.String()
}
