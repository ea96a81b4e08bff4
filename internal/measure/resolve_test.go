package measure

import (
	"reflect"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// denseResolve is the reference for scratch.resolve: the tally and
// resolution inference ran before it went sparse, a row of BGP tallies
// and a row of traceroute tallies for every AS of the world, one cell
// per link, resolved AS by AS in index order.
func denseResolve(evidence []vote, n int) *CatchmentMeasurement {
	numLinks := 0
	for _, v := range evidence {
		numLinks = max(numLinks, int(v.link)+1)
	}
	m := Unobserved(n)
	row := 2 * numLinks
	counts := make([]int32, n*row)
	for _, v := range evidence {
		cell := int(v.as)*row + int(v.link)
		if !v.bgp {
			cell += numLinks
		}
		counts[cell]++
	}
	for i := 0; i < n; i++ {
		bv, tv := counts[i*row:i*row+numLinks], counts[i*row+numLinks:(i+1)*row]
		bestB, bestBN, bestT, bestTN := bgp.NoLink, int32(0), bgp.NoLink, int32(0)
		links := 0
		for l := 0; l < numLinks; l++ {
			if bv[l] > bestBN {
				bestB, bestBN = bgp.LinkID(l), bv[l]
			}
			if tv[l] > bestTN {
				bestT, bestTN = bgp.LinkID(l), tv[l]
			}
			if bv[l] > 0 || tv[l] > 0 {
				links++
			}
		}
		if links == 0 {
			continue
		}
		if bestBN > 0 {
			m.Catchment[i] = bestB
		} else {
			m.Catchment[i] = bestT
		}
		if links > 1 {
			m.MultiCatchment++
		}
	}
	return m
}

// checkResolve resolves evidence on s, with numLinks extra links beyond
// the highest one voted for, and compares the result with the dense
// reference's.
func checkResolve(t *testing.T, s *scratch, evidence []vote, n, extra int) *CatchmentMeasurement {
	t.Helper()
	numLinks := extra
	for _, v := range evidence {
		numLinks = max(numLinks, int(v.link)+1+extra)
	}
	s.evidence = append(s.evidence[:0], evidence...)
	got, want := s.resolve(n, numLinks), denseResolve(evidence, n)
	if !reflect.DeepEqual(got, want) {
		for i := range want.Catchment {
			if got.Catchment[i] != want.Catchment[i] {
				t.Fatalf("n=%d, %d votes: AS %d resolves to %d, want %d", n, len(evidence), i, got.Catchment[i], want.Catchment[i])
			}
		}
		t.Fatalf("n=%d, %d votes: MultiCatchment %d, want %d", n, len(evidence), got.MultiCatchment, want.MultiCatchment)
	}
	for as, st := range s.state {
		if st != 0 {
			t.Fatalf("state[%d] = %d after a pass, want 0", as, st)
		}
	}
	return got
}

// TestInferMatchesDenseReference runs the sparse resolve and the dense
// reference on seeded random evidence: few ASes and links, so votes pile
// up on one AS, BGP and traceroute votes disagree and tallies tie across
// links; the first and last AS always in play; worlds that grow and
// shrink between passes on one scratch; and passes with no evidence.
func TestInferMatchesDenseReference(t *testing.T) {
	rng := stats.NewRNG(5)
	s := newScratch()
	var ev []vote
	var multi, ties, conflicts, empty int
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(60)
		if trial%50 == 0 {
			n = 1 + rng.Intn(3000)
		}
		links := 1 + rng.Intn(8)
		ev = ev[:0]
		if trial%20 != 0 {
			for k := rng.Intn(4 * n); k >= 0; k-- {
				as := rng.Intn(n)
				switch rng.Intn(8) {
				case 0:
					as = 0
				case 1:
					as = n - 1
				}
				ev = append(ev, vote{as: int32(as), link: int32(rng.Intn(links)), bgp: rng.Bool(0.3)})
			}
		}
		m := checkResolve(t, s, ev, n, rng.Intn(3))
		multi += m.MultiCatchment
		if len(ev) == 0 {
			empty++
		}
		// Coverage: an AS whose top BGP or traceroute tally is shared
		// by two links, and one whose BGP and traceroute majorities
		// differ.
		type tally struct{ b, t [8]int }
		per := map[int32]*tally{}
		for _, v := range ev {
			if per[v.as] == nil {
				per[v.as] = &tally{}
			}
			if v.bgp {
				per[v.as].b[v.link]++
			} else {
				per[v.as].t[v.link]++
			}
		}
		for _, c := range per {
			bb, bt := argmax(c.b[:]), argmax(c.t[:])
			if c.b[bb] > 0 && c.t[bt] > 0 && bb != bt {
				conflicts++
			}
			if tied(c.b[:]) || tied(c.t[:]) {
				ties++
			}
		}
	}
	if multi == 0 || ties < 100 || conflicts < 100 || empty == 0 {
		t.Fatalf("coverage: %d multi-catchment ASes, %d tied tallies, %d BGP/traceroute conflicts, %d empty passes", multi, ties, conflicts, empty)
	}
}

// argmax is the lowest index holding the largest value.
func argmax(xs []int) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// tied reports whether two entries share a largest, non-zero value.
func tied(xs []int) bool {
	best := xs[argmax(xs)]
	n := 0
	for _, x := range xs {
		if x == best {
			n++
		}
	}
	return best > 0 && n > 1
}

// FuzzInferResolve decodes the input into an evidence list — its first
// byte sizes the world, then three bytes a vote: AS, link, and whether
// the vote is BGP evidence — and requires the sparse resolve to match
// the dense reference on one scratch reused across inputs.
func FuzzInferResolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{9, 0, 1, 0, 8, 2, 1, 0, 2, 1, 8, 1, 0})
	f.Add([]byte{3, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 2, 6, 1})
	f.Add([]byte{255, 254, 126, 0, 0, 0, 1, 254, 126, 1, 254, 3, 0, 254, 3, 0})
	s := newScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkResolve(t, s, nil, 0, 0)
			return
		}
		n := 1 + int(data[0])
		var ev []vote
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			ev = append(ev, vote{
				as:   int32(int(b[0]) % n),
				link: int32(int(b[1]) % bgp.MaxLinks),
				bgp:  b[2]&1 != 0,
			})
		}
		checkResolve(t, s, ev, n, int(data[0])%2)
	})
}
