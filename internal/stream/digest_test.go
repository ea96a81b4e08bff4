package stream

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// decisionGolden is the FNV-64a digest of every Outcome field (volumes,
// scores and mean size by their math.Float64bits) and the final
// Assignments over the seeded decision cases, captured at commit
// ce09741, before the fold-and-decide step moved into sched. A decision,
// score or fold that moves by one bit changes it.
const decisionGolden = 0x81a5d7888d125eb6

const (
	decisionCases  = 60
	decisionRounds = 14
)

// botnet is a set of attacking sources sending rate packets per round
// over rounds [start, stop).
type botnet struct {
	members     []int
	rate        int64
	start, stop int
}

// decisionCase is one seeded run of the evaluator: a catchment matrix
// with unobserved cells, several botnets that start and stop, and the
// evaluator's split threshold.
type decisionCase struct {
	attr      Attribution
	botnets   []botnet
	threshold int
}

func newDecisionCase(i int) decisionCase {
	rng := stats.NewRNG(0xd1ce ^ uint64(i)*0x9e3779b97f4a7c15)
	n := 8 + rng.Intn(120)
	nLinks := 2 + rng.Intn(7)
	nCfg := 4 + rng.Intn(14)
	c := decisionCase{
		attr:      Attribution{NumLinks: nLinks},
		threshold: 1 + rng.Intn(3)%2,
	}
	for j := 0; j < nCfg; j++ {
		row := make([]bgp.LinkID, n)
		for k := range row {
			if rng.Intn(6) == 0 {
				row[k] = bgp.NoLink
			} else {
				row[k] = bgp.LinkID(rng.Intn(nLinks))
			}
		}
		c.attr.Catchments = append(c.attr.Catchments, row)
	}
	for b := 1 + rng.Intn(4); b > 0; b-- {
		bn := botnet{rate: int64(20 + rng.Intn(400)), start: 0, stop: decisionRounds}
		if rng.Intn(3) == 0 {
			bn.start = rng.Intn(decisionRounds / 2)
		}
		if rng.Intn(4) == 0 {
			bn.stop = bn.start + 1 + rng.Intn(decisionRounds-bn.start)
		}
		for m := 1 + rng.Intn(8); m > 0; m-- {
			bn.members = append(bn.members, rng.Intn(n))
		}
		c.botnets = append(c.botnets, bn)
	}
	return c
}

// roundPackets is what the honeypot counts per link in round r under
// configuration cfg: each live botnet member's rate on its catchment
// link (nothing for an unobserved one), plus a trickle of background
// packets that mostly stays under the noise floor.
func (c decisionCase) roundPackets(rng *stats.RNG, r, cfg int) []int64 {
	pkts := make([]int64, c.attr.NumLinks)
	row := c.attr.Catchments[cfg]
	for _, bn := range c.botnets {
		if r < bn.start || r >= bn.stop {
			continue
		}
		for _, k := range bn.members {
			if l := row[k]; l != bgp.NoLink {
				pkts[l] += bn.rate
			}
		}
	}
	for j := rng.Intn(3); j > 0; j-- {
		pkts[rng.Intn(len(pkts))] += int64(rng.Intn(12))
	}
	return pkts
}

// decisionStats counts what the cases exercised, so a change to the
// generator that stops reaching a decision path fails loudly rather
// than leaving the golden pinning less than it claims.
type decisionStats struct {
	splits, remeasures, waits, converged, blockedRounds, hintRounds, empty int
}

// hashDecisionCase steps one case through a fresh Evaluator — blocked
// masks on some rounds, standing hints on others, scored, final on the
// last — and writes every Outcome field and the final Assignments to h.
func hashDecisionCase(h hash.Hash64, i int, st *decisionStats) {
	c := newDecisionCase(i)
	rng := stats.NewRNG(0xfee1 ^ uint64(i))
	e := NewEvaluator(c.attr, EvalParams{SplitThreshold: c.threshold})
	n := len(c.attr.Catchments[0])
	nCfg := len(c.attr.Catchments)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for r := 0; r < decisionRounds; r++ {
		var blocked []bool
		if r%3 == 1 {
			blocked = make([]bool, nCfg)
			for j := range blocked {
				blocked[j] = rng.Intn(3) == 0
			}
			st.blockedRounds++
		}
		var hints []int
		if r%4 >= 2 {
			for j := 1 + rng.Intn(4); j > 0; j-- {
				hints = append(hints, rng.Intn(n))
			}
			st.hintRounds++
		}
		final := r == decisionRounds-1
		out := e.Step(c.roundPackets(rng, r, e.Current()), final, blocked, hints, true)

		put(uint64(out.Round))
		put(uint64(out.Config))
		put(uint64(len(out.Volumes)))
		for _, v := range out.Volumes {
			put(math.Float64bits(v))
		}
		put(uint64(out.Clusters))
		put(math.Float64bits(out.MeanSize))
		put(uint64(out.Candidates))
		put(uint64(int64(out.Deploy)))
		h.Write([]byte(out.Reason))
		put(uint64(len(out.Scores)))
		for _, s := range out.Scores {
			put(uint64(s.Config))
			put(math.Float64bits(s.Score))
		}
		if out.Converged {
			put(1)
			st.converged++
		} else {
			put(0)
		}
		switch {
		case out.Reason == "split":
			st.splits++
		case out.Reason == "remeasure":
			st.remeasures++
		case !final && !out.Converged:
			st.waits++
		}
		if out.Candidates == 0 {
			st.empty++
		}
	}
	for _, a := range e.Assignments() {
		put(uint64(a))
	}
}

// TestDecisionDigest pins the live evaluator's decision sequence bit for
// bit: every fold, pick, score and verdict over the seeded cases must
// match the digest captured before the decision step was shared with
// failover restore and provenance replay.
func TestDecisionDigest(t *testing.T) {
	h := fnv.New64a()
	var st decisionStats
	for i := 0; i < decisionCases; i++ {
		hashDecisionCase(h, i, &st)
	}
	if st.splits == 0 || st.remeasures == 0 || st.waits == 0 || st.converged == 0 ||
		st.blockedRounds == 0 || st.hintRounds == 0 || st.empty == 0 {
		t.Fatalf("decision cases no longer reach every path: %+v", st)
	}
	if got := h.Sum64(); got != decisionGolden {
		t.Fatalf("decision digest = %#x, want %#x: a fold, pick, score or verdict moved (%+v)", got, uint64(decisionGolden), st)
	}
}

// TestRestoreEvaluator: an evaluator restored from a mid-run snapshot
// refolds through the same loop, so it decides the rest of the run
// exactly as the original does; a snapshot that contradicts itself or
// the attribution is refused.
func TestRestoreEvaluator(t *testing.T) {
	for i := 0; i < 10; i++ {
		c := newDecisionCase(i)
		par := EvalParams{SplitThreshold: c.threshold}
		rng := stats.NewRNG(uint64(i))
		a := NewEvaluator(c.attr, par)
		var b *Evaluator
		for r := 0; r < decisionRounds; r++ {
			if r == decisionRounds/2 {
				var err error
				if b, err = RestoreEvaluator(c.attr, par, a.Snapshot()); err != nil {
					t.Fatalf("case %d: %v", i, err)
				}
			}
			pkts := c.roundPackets(rng, r, a.Current())
			hints := []int{r % len(c.attr.Catchments[0])}
			want := a.Step(pkts, false, nil, hints, true)
			if b == nil {
				continue
			}
			if got := b.Step(pkts, false, nil, hints, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d round %d: restored %+v, original %+v", i, r, got, want)
			}
		}
		if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) || !reflect.DeepEqual(a.Assignments(), b.Assignments()) {
			t.Fatalf("case %d: restored evaluator ended elsewhere", i)
		}
	}
	attr := newDecisionCase(0).attr
	for name, s := range map[string]EvalSnapshot{
		"no deployments":         {},
		"other initial config":   {Current: 1, Deployed: []int{1}},
		"deploy out of range":    {Current: 99, Deployed: []int{0, 99}},
		"fold out of range":      {Deployed: []int{0}, Rounds: []EvalRound{{Config: -1}}},
		"current not last":       {Current: 1, Deployed: []int{0}},
		"current behind the end": {Current: 0, Deployed: []int{0, 1}},
	} {
		if _, err := RestoreEvaluator(attr, EvalParams{}, s); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}
