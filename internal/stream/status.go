package stream

import (
	"sort"
	"time"

	"spooftrack/internal/report"
	"spooftrack/internal/sched"
	"spooftrack/internal/topo"
)

// LinkStatus is one peering link's current-round traffic.
type LinkStatus struct {
	Link          int     `json:"link"`
	RoundPackets  int64   `json:"round_packets"`
	RoundBytes    int64   `json:"round_bytes"`
	PacketsPerSec float64 `json:"packets_per_sec"`
}

// AttributedSource is one candidate network ranked by estimated spoofed
// volume.
type AttributedSource struct {
	ASN         topo.ASN `json:"asn"`
	Cluster     int      `json:"cluster"`
	ClusterSize int      `json:"cluster_size"`
	// VolumeShare is the fraction of the current round's volume
	// attributed to this source.
	VolumeShare float64 `json:"volume_share"`
}

// Status is a point-in-time snapshot of the pipeline, shaped for the
// daemon's JSON status endpoint.
type Status struct {
	UptimeSec        float64            `json:"uptime_sec"`
	Workers          int                `json:"workers"`
	CurrentConfig    int                `json:"current_config"`
	DeployedConfigs  []int              `json:"deployed_configs"`
	Reconfigurations int                `json:"reconfigurations"`
	Rounds           int                `json:"rounds"`
	TotalEvents      int64              `json:"total_events"`
	TotalBytes       int64              `json:"total_bytes"`
	EventsPerSec     float64            `json:"events_per_sec"`
	NumSources       int                `json:"num_sources"`
	NumClusters      int                `json:"num_clusters"`
	MeanClusterSize  float64            `json:"mean_cluster_size"`
	Candidates       int                `json:"candidates"`
	Converged        bool               `json:"converged"`
	Degraded         bool               `json:"degraded"`
	DroppedEvents    int64              `json:"dropped_events"`
	PerLink          []LinkStatus       `json:"per_link"`
	TopSources       []AttributedSource `json:"top_sources"`
	History          []RoundRecord      `json:"history"`
}

// Status snapshots the pipeline: the intake's counters plus the local
// verdict. topN caps the TopSources list (0 means 10).
func (p *Pipeline) Status(topN int) Status {
	if topN <= 0 {
		topN = 10
	}
	now := time.Now()
	in, e := p.in, p.eval
	p.mu.Lock()
	defer p.mu.Unlock()
	h := in.Status()
	part, candidates := e.loop.Partition(), e.loop.Candidates()

	s := Status{
		UptimeSec:        now.Sub(in.start).Seconds(),
		Workers:          in.cfg.Workers,
		CurrentConfig:    e.loop.Current(),
		DeployedConfigs:  e.Deployed(),
		Reconfigurations: len(e.deployed) - 1,
		Rounds:           len(p.history),
		TotalEvents:      h.Total,
		TotalBytes:       h.TotalBytes,
		NumSources:       part.NumSources(),
		NumClusters:      part.NumClusters(),
		MeanClusterSize:  part.Summarize().MeanSize,
		Candidates:       len(candidates),
		Converged:        e.converged,
		Degraded:         h.Degraded,
		DroppedEvents:    h.Dropped,
		History:          append([]RoundRecord(nil), p.history...),
	}
	if s.UptimeSec > 0 {
		s.EventsPerSec = float64(h.Total) / s.UptimeSec
	}

	roundDur := now.Sub(p.started).Seconds()
	totalRound := 0.0
	volumes := make([]float64, len(h.Pkts))
	for l, n := range h.Pkts {
		volumes[l] = float64(n)
		if n == 0 && h.Bytes[l] == 0 {
			continue
		}
		ls := LinkStatus{Link: l, RoundPackets: n, RoundBytes: h.Bytes[l]}
		if roundDur > 0 {
			ls.PacketsPerSec = float64(n) / roundDur
		}
		totalRound += float64(n)
		s.PerLink = append(s.PerLink, ls)
	}

	// Top attributed sources: candidates ranked by current-round
	// volume share.
	est := sched.EstimateVolumes(in.attr.Catchments[e.loop.Current()], candidates, volumes)
	// One size table per call: this runs under p.mu, which a fold waits
	// on.
	sizes := part.Sizes()
	for _, k := range candidates {
		if est[k] <= 0 {
			continue
		}
		cl := part.ClusterOf(k)
		as := AttributedSource{
			ASN:         in.attr.SourceASNs[k],
			Cluster:     cl,
			ClusterSize: sizes[cl],
		}
		if totalRound > 0 {
			as.VolumeShare = est[k] / totalRound
		}
		s.TopSources = append(s.TopSources, as)
	}
	sort.Slice(s.TopSources, func(i, j int) bool {
		a, b := s.TopSources[i], s.TopSources[j]
		if a.VolumeShare != b.VolumeShare {
			return a.VolumeShare > b.VolumeShare
		}
		return a.ASN < b.ASN
	})
	if len(s.TopSources) > topN {
		s.TopSources = s.TopSources[:topN]
	}
	return s
}

// Candidates returns the current candidate source positions.
func (p *Pipeline) Candidates() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eval.Candidates()
}

// Deployed returns the configurations deployed so far, in order.
func (p *Pipeline) Deployed() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eval.Deployed()
}

// Converged reports whether the top volume-ranked candidate cluster is
// within the split threshold.
func (p *Pipeline) Converged() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eval.Converged()
}

// Evidence is the local verdict's operator report (Evaluator.Evidence).
func (p *Pipeline) Evidence() (*report.Report, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eval.Evidence()
}
