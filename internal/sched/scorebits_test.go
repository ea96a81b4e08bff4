package sched

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/stats"
)

// scoreCase is one seeded greedy-volume decision: a partition at some
// refinement depth, a volume vector of one of the shapes the live loop
// produces (and the degenerate ones it must survive), and a handful of
// candidate configurations.
type scoreCase struct {
	p             *cluster.Partition
	volume        []float64
	catchments    [][]bgp.LinkID
	used, blocked []bool
}

// scoreCaseRow draws one catchment row over nLinks links; about one
// cell in six is unobserved.
func scoreCaseRow(rng *stats.RNG, n, nLinks int) []bgp.LinkID {
	row := make([]bgp.LinkID, n)
	for k := range row {
		if rng.Intn(6) == 0 {
			row[k] = bgp.NoLink
		} else {
			row[k] = bgp.LinkID(rng.Intn(nLinks))
		}
	}
	return row
}

func newScoreCase(i int) scoreCase {
	rng := stats.NewRNG(0x5c07e ^ uint64(i)*0x9e3779b97f4a7c15)
	n := 2 + rng.Intn(150)
	nLinks := 1 + rng.Intn(7)
	p := cluster.New(n)
	for depth := i % 5; depth > 0; depth-- {
		p.Refine(scoreCaseRow(rng, n, nLinks))
	}
	volume := make([]float64, n)
	switch i % 7 {
	case 0: // every source carries its own non-round volume
		for k := range volume {
			volume[k] = rng.Float64() * 1000
		}
	case 1: // a few sources carry volume: most clusters carry none, and
		// the ones that do mix zero- and non-zero-volume members
		for j := 0; j < 1+n/20; j++ {
			volume[rng.Intn(n)] = rng.Float64()*100 + 0.1
		}
	case 2: // volume only on a singleton cluster
		lone := make([]bgp.LinkID, n)
		k := rng.Intn(n)
		lone[k] = 6
		p.Refine(lone)
		volume[k] = 3.7
	case 3: // volume shorter than the source list
		volume = volume[:rng.Intn(n)]
		for k := range volume {
			if rng.Intn(3) > 0 {
				volume[k] = rng.Float64() * 10
			}
		}
	case 4: // no volume at all: every score is 0
	case 5: // equal shares on one link's candidates, as estimateInto does
		row := scoreCaseRow(rng, n, nLinks)
		cands := make([]int, 0, n)
		for k := range row {
			if rng.Intn(3) > 0 {
				cands = append(cands, k)
			}
		}
		vols := make([]float64, nLinks)
		vols[rng.Intn(nLinks)] = float64(1 + rng.Intn(5000))
		volume = estimateInto(nil, row, cands, vols)
	case 6: // integer volumes with many zeros
		for k := range volume {
			volume[k] = float64(rng.Intn(4))
		}
	}
	nCfg := 3 + rng.Intn(8)
	c := scoreCase{p: p, volume: volume, used: make([]bool, nCfg)}
	for j := 0; j < nCfg; j++ {
		c.catchments = append(c.catchments, scoreCaseRow(rng, n, nLinks))
		c.used[j] = rng.Intn(5) == 0
	}
	if i%3 == 0 {
		c.blocked = make([]bool, nCfg)
		for j := range c.blocked {
			c.blocked[j] = rng.Intn(5) == 0
		}
	}
	return c
}

const scoreCases = 280

// scoreBitsGolden is the FNV-64a digest of every winner, every scored
// configuration index and the math.Float64bits of every score over the
// seeded cases, captured at commit e08809f (cluster.WeightedMeanSizeAfter
// over all sources, a fresh table per call) before the scoring loop
// moved onto the volume-bearing walk set. A score that is merely close
// changes it.
const scoreBitsGolden = 0x101bc54b6d1392fe

// hashScoreCase scores one case through the pooled step and writes the
// winner, every scored configuration and the bits of every score to h.
func hashScoreCase(h hash.Hash64, c scoreCase) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	best, scores := NextGreedyVolumeScored(c.p, c.catchments, c.volume, c.used, c.blocked, true)
	put(uint64(int64(best)))
	put(uint64(len(scores)))
	for _, s := range scores {
		put(uint64(s.Config))
		put(math.Float64bits(s.Score))
	}
}

func scoreBitsDigest() uint64 {
	h := fnv.New64a()
	for i := 0; i < scoreCases; i++ {
		hashScoreCase(h, newScoreCase(i))
	}
	return h.Sum64()
}

// scoreCaseDigest is one case's digest on its own.
func scoreCaseDigest(c scoreCase) uint64 {
	h := fnv.New64a()
	hashScoreCase(h, c)
	return h.Sum64()
}

func TestGreedyVolumeScoreBitsGolden(t *testing.T) {
	if got := scoreBitsDigest(); got != scoreBitsGolden {
		t.Fatalf("score-bits digest = %#x, want %#x: a greedy-volume score or winner moved by at least one bit", got, uint64(scoreBitsGolden))
	}
}

// TestGreedyStepPanicLeavesPoolClean: a step that panics half way — a
// good row scored, then a row of the wrong length — must not hand the
// next step a scorer with a dirty table. The golden digest, which the
// 280 cases reach through that same pool, is the witness.
func TestGreedyStepPanicLeavesPoolClean(t *testing.T) {
	for i := 0; i < 8; i++ {
		c := newScoreCase(i)
		c.catchments = append(c.catchments[:1:1], c.catchments[0][:1])
		c.used, c.blocked = make([]bool, 2), nil
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic on a catchment row of the wrong length", i)
				}
			}()
			NextGreedyVolumeScored(c.p, c.catchments, c.volume, c.used, c.blocked, true)
		}()
	}
	if got := scoreBitsDigest(); got != scoreBitsGolden {
		t.Fatalf("score-bits digest after panicking steps = %#x, want %#x", got, uint64(scoreBitsGolden))
	}
}

// TestGreedyStepConcurrent: the pipeline, a controller and a replay may
// all be inside the greedy step at once, sharing the scorer free list. Eight
// goroutines score different partitions; each must read what a lone
// caller reads. Run under -race (scripts/ci.sh does).
func TestGreedyStepConcurrent(t *testing.T) {
	want := make([]uint64, scoreCases)
	for i := range want {
		want[i] = scoreCaseDigest(newScoreCase(i))
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := w; i < scoreCases; i += workers {
					if got := scoreCaseDigest(newScoreCase(i)); got != want[i] {
						t.Errorf("worker %d case %d: digest %#x, alone %#x", w, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
