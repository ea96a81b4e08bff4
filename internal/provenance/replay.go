package provenance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/sched"
	"spooftrack/internal/spoof"
)

// ReplayResult is the outcome of re-running localization from a ledger.
type ReplayResult struct {
	// Rounds / Reconfigs / Verdicts count the events re-executed.
	Rounds    int `json:"rounds"`
	Reconfigs int `json:"reconfigs"`
	Verdicts  int `json:"verdicts"`
	// Degraded counts degradation events present in the chain (under
	// chaos profiles these must appear for the replay to be honest
	// about what the live run actually saw).
	Degraded int `json:"degraded"`
	// Final is the last verdict as recomputed by the replay.
	Final *VerdictEvent `json:"final,omitempty"`
	// Reproduced is true when every recorded verdict and decision was
	// reproduced byte-for-byte.
	Reproduced bool `json:"reproduced"`
	// Mismatches describes every divergence found (empty when
	// Reproduced).
	Mismatches []string `json:"mismatches,omitempty"`
}

// replayState is the per-component (campaign or stream) decision state
// reconstructed from the ledger.
type replayState struct {
	meta       *MetaEvent
	rows       [][]bgp.LinkID
	part       *cluster.Partition
	loc        *spoof.IncrementalLocalizer
	used       []bool
	current    int
	candidates []int
	// Fold-time snapshot consumed by the reconfig/verdict that follow
	// the round event.
	estVol    []float64
	topSize   int
	canSplit  bool
	lastRound int
}

// Replay re-runs classification and localization purely from the
// recorded ledger — the same refinement, localizer, volume-ranking,
// and greedy scheduling code the live pipeline ran, driven only by
// recorded catchment rows and round volumes — and asserts that every
// recorded verdict and reconfiguration decision is reproduced
// byte-for-byte. It never consults live state, so a ledger exported
// from one process replays identically anywhere.
//
// An export whose evidence disagrees with its own meta events — see
// check — is an error, never a panic: a ledger read back from a file is
// untrusted input.
func Replay(e *Export) (*ReplayResult, error) {
	if e == nil || len(e.Events) == 0 {
		return nil, fmt.Errorf("provenance: replay of empty ledger")
	}
	if err := e.check(); err != nil {
		return nil, err
	}
	res := &ReplayResult{}
	states := map[string]*replayState{}
	rows := e.rowsByConfig()

	state := func(component string) *replayState {
		if st := states[component]; st != nil {
			return st
		}
		return nil
	}

	for i := range e.Events {
		ev := &e.Events[i]
		switch {
		case ev.Meta != nil:
			m := ev.Meta
			st := &replayState{
				meta:    m,
				part:    cluster.New(m.NumSources),
				loc:     spoof.NewIncrementalLocalizer(m.NumSources),
				used:    make([]bool, m.NumConfigs),
				current: m.InitialConfig,
				topSize: -1,
			}
			st.used[m.InitialConfig] = true
			st.rows = rowTable(rows, m.NumConfigs)
			states[m.Component] = st

		case ev.Degrade != nil:
			res.Degraded++

		case ev.Round != nil:
			st := state("stream")
			if st == nil {
				return nil, fmt.Errorf("provenance: round event %d before stream meta", ev.Seq)
			}
			res.Rounds++
			r := ev.Round
			if r.Config != st.current {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"round %d folded config %d, replay expected %d", r.Round, r.Config, st.current))
			}
			row := st.rows[r.Config]
			st.loc.AddRound(row, r.Volumes)
			st.part.Refine(row)
			st.candidates = st.loc.Candidates(st.meta.MaxMisses)
			st.lastRound = r.Round
			if got := st.part.NumClusters(); got != r.Clusters {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"round %d: %d clusters recorded, replay got %d", r.Round, r.Clusters, got))
			}
			if got := len(st.candidates); got != r.Candidates {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"round %d: %d candidates recorded, replay got %d", r.Round, r.Candidates, got))
			}
			// Fold-time decision inputs, through the functions the
			// controller computed them with (before any reconfiguration
			// marks a configuration used).
			st.estVol = sched.EstimateVolumes(row, st.candidates, r.Volumes)
			topID, topSize := sched.TopVolumeCluster(st.part, st.candidates, st.estVol)
			st.topSize = topSize
			st.canSplit = topSize > st.meta.SplitThreshold &&
				sched.Splittable(st.rows, st.used, st.part.MembersOf(topID))

		case ev.Reconfig != nil:
			st := state("stream")
			if st == nil {
				return nil, fmt.Errorf("provenance: reconfig event %d before stream meta", ev.Seq)
			}
			res.Reconfigs++
			rc := ev.Reconfig
			blocked := blockedMask(rc.Blocked, len(st.used))
			var next int
			switch rc.Reason {
			case "remeasure":
				next = sched.NextRemeasure(st.rows, rc.Hints, st.used, blocked)
			default:
				var scores []CandidateScore
				next, scores = sched.NextGreedyVolumeScored(st.part, st.rows, st.estVol, st.used, blocked, true)
				if rc.Beaten != nil {
					if diff := diffScores(rc.Beaten, scores); diff != "" {
						res.Mismatches = append(res.Mismatches, fmt.Sprintf(
							"reconfig after round %d: candidate scores diverge: %s", rc.Round, diff))
					}
				}
			}
			if next != rc.Chosen {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"reconfig after round %d (%s): chose %d, replay chose %d", rc.Round, rc.Reason, rc.Chosen, next))
			}
			st.used[rc.Chosen] = true
			st.current = rc.Chosen

		case ev.Verdict != nil:
			res.Verdicts++
			v := ev.Verdict
			var recomputed *VerdictEvent
			switch v.Origin {
			case "campaign":
				st := state("campaign")
				if st == nil {
					return nil, fmt.Errorf("provenance: campaign verdict %d before campaign meta", ev.Seq)
				}
				recomputed = campaignVerdict(st, rows)
			default:
				st := state("stream")
				if st == nil {
					return nil, fmt.Errorf("provenance: stream verdict %d before stream meta", ev.Seq)
				}
				recomputed = &VerdictEvent{
					Origin:     "stream",
					Round:      st.lastRound,
					Candidates: st.candidates,
					Assign:     st.part.Assignments(),
					Clusters:   st.part.NumClusters(),
					Converged:  st.topSize >= 0 && !st.canSplit,
				}
			}
			if diff := diffVerdicts(v, recomputed); diff != "" {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"verdict (%s, round %d): %s", v.Origin, v.Round, diff))
			}
			res.Final = recomputed
		}
	}

	res.Reproduced = len(res.Mismatches) == 0
	return res, nil
}

// check holds the export to its own meta events before Replay sizes or
// indexes anything by them. Every meta declares at least one
// configuration, no negative count, and an initial configuration in
// range. Every configuration id an event names — deployed, retried,
// degraded, rowed, folded, chosen or blocked — is one each meta declares.
// Every row has one link per declared source, each NoLink or a declared
// link, and every declared configuration has a row. The last rule is
// what keeps Replay's memory proportional to the export: the live loop
// and the campaign record every row, so only a corrupt or hostile
// export lacks one.
func (e *Export) check() error {
	var metas []*MetaEvent
	for i := range e.Events {
		if m := e.Events[i].Meta; m != nil {
			if m.NumSources < 0 || m.NumConfigs < 1 || m.NumLinks < 0 ||
				m.InitialConfig < 0 || m.InitialConfig >= m.NumConfigs {
				return fmt.Errorf("provenance: %s meta declares %d sources, %d configurations, %d links, initial configuration %d",
					m.Component, m.NumSources, m.NumConfigs, m.NumLinks, m.InitialConfig)
			}
			metas = append(metas, m)
		}
	}
	config := func(seq uint64, what string, c int) error {
		for _, m := range metas {
			if c < 0 || c >= m.NumConfigs {
				return fmt.Errorf("provenance: event %d %s configuration %d, %s meta declares %d",
					seq, what, c, m.Component, m.NumConfigs)
			}
		}
		return nil
	}
	rowed := map[int]bool{}
	for i := range e.Events {
		ev := &e.Events[i]
		var err error
		switch {
		case ev.Deploy != nil:
			err = config(ev.Seq, "deploys", ev.Deploy.Config)
		case ev.Retry != nil:
			err = config(ev.Seq, "retries", ev.Retry.Config)
		case ev.Degrade != nil:
			err = config(ev.Seq, "degrades", ev.Degrade.Config)
		case ev.Round != nil:
			err = config(ev.Seq, "folds", ev.Round.Config)
		case ev.Reconfig != nil:
			err = config(ev.Seq, "chooses", ev.Reconfig.Chosen)
			for _, c := range ev.Reconfig.Blocked {
				if err == nil {
					err = config(ev.Seq, "blocks", c)
				}
			}
		case ev.Row != nil:
			err = config(ev.Seq, "rows", ev.Row.Config)
			for _, m := range metas {
				if err != nil {
					break
				}
				if len(ev.Row.Catchment) != m.NumSources {
					err = fmt.Errorf("provenance: event %d rows %d sources, %s meta declares %d",
						ev.Seq, len(ev.Row.Catchment), m.Component, m.NumSources)
				}
				for _, l := range ev.Row.Catchment {
					if err == nil && (l < bgp.NoLink || int(l) >= m.NumLinks) {
						err = fmt.Errorf("provenance: event %d rows link %d, %s meta declares %d",
							ev.Seq, l, m.Component, m.NumLinks)
					}
				}
			}
			rowed[ev.Row.Config] = true
		}
		if err != nil {
			return err
		}
	}
	for _, m := range metas {
		if len(rowed) != m.NumConfigs {
			return fmt.Errorf("provenance: rows for %d configurations, %s meta declares %d",
				len(rowed), m.Component, m.NumConfigs)
		}
	}
	return nil
}

// rowTable materializes the dense per-configuration catchment table;
// check has made sure every configuration has a row.
func rowTable(rows map[int][]bgp.LinkID, numConfigs int) [][]bgp.LinkID {
	table := make([][]bgp.LinkID, numConfigs)
	for c := range table {
		table[c] = rows[c]
	}
	return table
}

// campaignVerdict refines a fresh partition over the campaign's rows in
// configuration order — exactly Campaign.FinalPartition.
func campaignVerdict(st *replayState, rows map[int][]bgp.LinkID) *VerdictEvent {
	p := cluster.New(st.meta.NumSources)
	cfgs := make([]int, 0, len(rows))
	for c := range rows {
		cfgs = append(cfgs, c)
	}
	sort.Ints(cfgs)
	for _, c := range cfgs {
		if row := rows[c]; len(row) == st.meta.NumSources {
			p.Refine(row)
		}
	}
	return &VerdictEvent{
		Origin:   "campaign",
		Assign:   p.Assignments(),
		Clusters: p.NumClusters(),
	}
}

// blockedMask expands a recorded blocked-configuration list to a mask.
func blockedMask(blocked []int, n int) []bool {
	if len(blocked) == 0 {
		return nil
	}
	mask := make([]bool, n)
	for _, c := range blocked {
		if c >= 0 && c < n {
			mask[c] = true
		}
	}
	return mask
}

// diffVerdicts compares two verdicts byte-for-byte via their canonical
// JSON encodings and describes the first divergence.
func diffVerdicts(recorded, recomputed *VerdictEvent) string {
	a, err := json.Marshal(recorded)
	if err != nil {
		return fmt.Sprintf("marshal recorded: %v", err)
	}
	b, err := json.Marshal(recomputed)
	if err != nil {
		return fmt.Sprintf("marshal recomputed: %v", err)
	}
	if !bytes.Equal(a, b) {
		return fmt.Sprintf("recorded %s != replayed %s", a, b)
	}
	return ""
}

// diffScores compares a recorded candidate-score set against the
// replayed one.
func diffScores(recorded, replayed []CandidateScore) string {
	if len(recorded) != len(replayed) {
		return fmt.Sprintf("%d candidates recorded, %d replayed", len(recorded), len(replayed))
	}
	for i := range recorded {
		if recorded[i] != replayed[i] {
			return fmt.Sprintf("candidate %d: recorded {%d %g}, replayed {%d %g}",
				i, recorded[i].Config, recorded[i].Score, replayed[i].Config, replayed[i].Score)
		}
	}
	return ""
}
