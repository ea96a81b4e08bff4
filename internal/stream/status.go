package stream

import (
	"net/netip"
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

// VictimStatus is one spoofed (victim) address by request count.
type VictimStatus struct {
	Addr    netip.Addr `json:"addr"`
	Packets int64      `json:"packets"`
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
	TopVictims       []VictimStatus     `json:"top_victims"`
	History          []RoundRecord      `json:"history"`
}

// Status snapshots the pipeline: the intake's counters plus the local
// verdict. topN caps the TopSources and TopVictims lists (0 means 10).
func (p *Pipeline) Status(topN int) Status {
	if topN <= 0 {
		topN = 10
	}
	now := time.Now()
	in, e := p.in, p.eval
	in.mu.Lock()
	defer in.mu.Unlock()
	st := &in.st

	s := Status{
		UptimeSec:        now.Sub(in.start).Seconds(),
		Workers:          in.cfg.Workers,
		CurrentConfig:    e.current,
		DeployedConfigs:  append([]int(nil), e.deployed...),
		Reconfigurations: len(e.deployed) - 1,
		Rounds:           len(p.history),
		TotalEvents:      st.total,
		TotalBytes:       st.totalBytes,
		NumSources:       e.part.NumSources(),
		NumClusters:      e.part.NumClusters(),
		MeanClusterSize:  e.part.Summarize().MeanSize,
		Candidates:       len(e.candidates),
		Converged:        e.converged,
		Degraded:         in.degraded.Load(),
		DroppedEvents:    in.droppedN.Load(),
		History:          append([]RoundRecord(nil), p.history...),
	}
	if s.UptimeSec > 0 {
		s.EventsPerSec = float64(st.total) / s.UptimeSec
	}

	roundDur := now.Sub(st.roundStart).Seconds()
	totalRound := 0.0
	for l := range st.roundPkts {
		if st.roundPkts[l] == 0 && st.roundBytes[l] == 0 {
			continue
		}
		ls := LinkStatus{Link: l, RoundPackets: st.roundPkts[l], RoundBytes: st.roundBytes[l]}
		if roundDur > 0 {
			ls.PacketsPerSec = float64(st.roundPkts[l]) / roundDur
		}
		totalRound += float64(st.roundPkts[l])
		s.PerLink = append(s.PerLink, ls)
	}

	// Top attributed sources: candidates ranked by current-round
	// volume share.
	volumes := make([]float64, len(st.roundPkts))
	for l, n := range st.roundPkts {
		volumes[l] = float64(n)
	}
	est := sched.EstimateVolumes(in.attr.Catchments[e.current], e.candidates, volumes)
	// One size table per call: this runs under in.mu, where a table per
	// candidate would stall every worker flush.
	sizes := e.part.Sizes()
	for _, k := range e.candidates {
		if est[k] <= 0 {
			continue
		}
		cl := e.part.ClusterOf(k)
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

	for addr, n := range st.bySource {
		s.TopVictims = append(s.TopVictims, VictimStatus{Addr: addr, Packets: n})
	}
	sort.Slice(s.TopVictims, func(i, j int) bool {
		a, b := s.TopVictims[i], s.TopVictims[j]
		if a.Packets != b.Packets {
			return a.Packets > b.Packets
		}
		return a.Addr.Less(b.Addr)
	})
	if len(s.TopVictims) > topN {
		s.TopVictims = s.TopVictims[:topN]
	}
	return s
}

// Candidates returns the current candidate source positions.
func (p *Pipeline) Candidates() []int {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	return append([]int(nil), p.eval.candidates...)
}

// Deployed returns the configurations deployed so far, in order.
func (p *Pipeline) Deployed() []int {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	return append([]int(nil), p.eval.deployed...)
}

// Converged reports whether the top volume-ranked candidate cluster is
// within the split threshold.
func (p *Pipeline) Converged() bool {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	return p.eval.converged
}

// Evidence assembles the operator notification report (internal/report)
// from every completed round — the per-candidate volume shares and
// corroborating configurations §I's adoption-driving use case needs.
func (p *Pipeline) Evidence() (*report.Report, error) {
	p.in.mu.Lock()
	history := append([]RoundRecord(nil), p.history...)
	candidates := append([]int(nil), p.eval.candidates...)
	part := p.eval.part.Clone()
	p.in.mu.Unlock()
	attr := p.in.attr

	in := report.Input{
		Sources:          allSources(part.NumSources()),
		ASNOf:            func(i int) topo.ASN { return attr.SourceASNs[i] },
		Partition:        part,
		CandidateIndexes: candidates,
	}
	for _, rec := range history {
		in.Catchments = append(in.Catchments, attr.Catchments[rec.Config])
		in.Volumes = append(in.Volumes, rec.Volumes)
	}
	return report.Build(in)
}
