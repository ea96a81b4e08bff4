package provenance

import (
	"bytes"
	"encoding/json"
	"fmt"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/sched"
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
	meta      *MetaEvent
	loop      *sched.Loop
	lastRound int
}

// Replay re-runs classification and localization purely from the
// recorded ledger — the same sched.Loop the live pipeline folded and
// decided with, driven only by recorded catchment rows and round
// volumes — and asserts that every recorded verdict and
// reconfiguration decision is reproduced byte-for-byte. It never
// consults live state, so a ledger exported from one process replays
// identically anywhere.
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

	for i := range e.Events {
		ev := &e.Events[i]
		switch {
		case ev.Meta != nil:
			m := ev.Meta
			states[m.Component] = &replayState{
				meta: m,
				loop: sched.NewLoop(rowTable(rows, m.NumConfigs), m.InitialConfig, m.SplitThreshold),
			}

		case ev.Degrade != nil:
			res.Degraded++

		case ev.Round != nil:
			st := states["stream"]
			if st == nil {
				return nil, fmt.Errorf("provenance: round event %d before stream meta", ev.Seq)
			}
			res.Rounds++
			r := ev.Round
			if cur := st.loop.Current(); r.Config != cur {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"round %d folded config %d, replay expected %d", r.Round, r.Config, cur))
			}
			st.loop.Fold(r.Config, r.Volumes)
			st.lastRound = r.Round
			if got := st.loop.Partition().NumClusters(); got != r.Clusters {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"round %d: %d clusters recorded, replay got %d", r.Round, r.Clusters, got))
			}
			if got := len(st.loop.Candidates()); got != r.Candidates {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"round %d: %d candidates recorded, replay got %d", r.Round, r.Candidates, got))
			}

		case ev.Reconfig != nil:
			st := states["stream"]
			if st == nil {
				return nil, fmt.Errorf("provenance: reconfig event %d before stream meta", ev.Seq)
			}
			res.Reconfigs++
			rc := ev.Reconfig
			// The reason is re-derived, not read off the ledger: a split the
			// live loop recorded as a re-measurement is a divergence too.
			next, reason, scores := st.loop.Next(blockedMask(rc.Blocked, st.meta.NumConfigs), rc.Hints, true)
			if reason != rc.Reason {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"reconfig after round %d: reason %q recorded, replay derived %q", rc.Round, rc.Reason, reason))
			}
			if next != rc.Chosen {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"reconfig after round %d (%s): chose %d, replay chose %d", rc.Round, rc.Reason, rc.Chosen, next))
			}
			if diff := diffScores(rc.Beaten, scores); diff != "" {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"reconfig after round %d: candidate scores diverge: %s", rc.Round, diff))
			}
			st.loop.Deploy(rc.Chosen)

		case ev.Verdict != nil:
			res.Verdicts++
			v := ev.Verdict
			var recomputed *VerdictEvent
			switch v.Origin {
			case "campaign":
				st := states["campaign"]
				if st == nil {
					return nil, fmt.Errorf("provenance: campaign verdict %d before campaign meta", ev.Seq)
				}
				recomputed = campaignVerdict(st, rows)
			default:
				st := states["stream"]
				if st == nil {
					return nil, fmt.Errorf("provenance: stream verdict %d before stream meta", ev.Seq)
				}
				// A copy: the next fold refills the loop's candidate
				// list, and res.Final keeps this verdict.
				recomputed = &VerdictEvent{
					Origin:     "stream",
					Round:      st.lastRound,
					Candidates: append([]int(nil), st.loop.Candidates()...),
					Assign:     st.loop.Partition().Assignments(),
					Clusters:   st.loop.Partition().NumClusters(),
					Converged:  st.loop.Converged(),
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
	for _, row := range rowTable(rows, st.meta.NumConfigs) {
		p.Refine(row)
	}
	return &VerdictEvent{
		Origin:   "campaign",
		Assign:   p.Assignments(),
		Clusters: p.NumClusters(),
	}
}

// blockedMask expands a recorded blocked-configuration list to a mask;
// check has made sure every listed configuration is in range.
func blockedMask(blocked []int, n int) []bool {
	mask := make([]bool, n)
	for _, c := range blocked {
		mask[c] = true
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
