package bgp

import (
	"reflect"
	"slices"
	"testing"

	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

func ann(l LinkID, prepend int, poison []topo.ASN, comms []Community) Announcement {
	return Announcement{Link: l, Prepend: prepend, Poison: poison, Communities: comms}
}

func TestDiffConfigs(t *testing.T) {
	comm := Community{Operator: 100, Action: ActNoExportTo, Target: 200}
	comm2 := Community{Operator: 100, Action: ActPrependTo, Target: 200}
	cases := []struct {
		name       string
		prev, next Config
		same       bool
		identity   bool
		prevChange []AnnChange
		newChange  []AnnChange
		prevToNew  []int16
		lenShift   []int32
		touched    [][]topo.ASN
		numDirty   int
		// cost is deltaCost: added < lengthened < withdrawn = shortened =
		// communities changed; a same-length poison swap costs its toggles.
		cost int
	}{
		{
			name:       "noop",
			prev:       Config{Anns: []Announcement{ann(0, 1, []topo.ASN{7}, nil), ann(2, 0, nil, []Community{comm})}},
			next:       Config{Anns: []Announcement{ann(0, 1, []topo.ASN{7}, nil), ann(2, 0, nil, []Community{comm})}},
			same:       true,
			identity:   true,
			prevChange: []AnnChange{AnnUnchanged, AnnUnchanged},
			newChange:  []AnnChange{AnnUnchanged, AnnUnchanged},
			prevToNew:  []int16{0, 1},
			lenShift:   []int32{0, 0},
			touched:    [][]topo.ASN{nil, nil},
		},
		{
			name:       "reordered",
			prev:       Config{Anns: []Announcement{ann(0, 0, nil, nil), ann(2, 0, nil, nil)}},
			next:       Config{Anns: []Announcement{ann(2, 0, nil, nil), ann(0, 0, nil, nil)}},
			same:       true,
			identity:   false,
			prevChange: []AnnChange{AnnUnchanged, AnnUnchanged},
			newChange:  []AnnChange{AnnUnchanged, AnnUnchanged},
			prevToNew:  []int16{1, 0},
			lenShift:   []int32{0, 0},
			touched:    [][]topo.ASN{nil, nil},
		},
		{
			name:       "announcement_added",
			prev:       Config{Anns: []Announcement{ann(0, 0, nil, nil)}},
			next:       Config{Anns: []Announcement{ann(0, 0, nil, nil), ann(3, 2, nil, nil)}},
			prevChange: []AnnChange{AnnUnchanged},
			newChange:  []AnnChange{AnnUnchanged, AnnAdded},
			prevToNew:  []int16{0},
			lenShift:   []int32{0},
			touched:    [][]topo.ASN{nil},
			numDirty:   1,
			cost:       1,
		},
		{
			name:       "announcement_removed",
			prev:       Config{Anns: []Announcement{ann(0, 0, nil, nil), ann(3, 0, nil, nil)}},
			next:       Config{Anns: []Announcement{ann(3, 0, nil, nil)}},
			prevChange: []AnnChange{AnnRemoved, AnnUnchanged},
			newChange:  []AnnChange{AnnUnchanged},
			prevToNew:  []int16{-1, 0},
			lenShift:   []int32{0, 0},
			touched:    [][]topo.ASN{nil, nil},
			numDirty:   1,
			cost:       8,
		},
		{
			name:       "prepend_change",
			prev:       Config{Anns: []Announcement{ann(1, 0, nil, nil)}},
			next:       Config{Anns: []Announcement{ann(1, 3, nil, nil)}},
			prevChange: []AnnChange{AnnShifted},
			newChange:  []AnnChange{AnnShifted},
			prevToNew:  []int16{0},
			lenShift:   []int32{3},
			touched:    [][]topo.ASN{nil},
			numDirty:   1,
			cost:       4,
		},
		{
			name:       "prepend_shortened",
			prev:       Config{Anns: []Announcement{ann(1, 3, nil, nil)}},
			next:       Config{Anns: []Announcement{ann(1, 0, nil, nil)}},
			prevChange: []AnnChange{AnnShifted},
			newChange:  []AnnChange{AnnShifted},
			prevToNew:  []int16{0},
			lenShift:   []int32{-3},
			touched:    [][]topo.ASN{nil},
			numDirty:   1,
			cost:       8,
		},
		{
			name:       "poison_added",
			prev:       Config{Anns: []Announcement{ann(1, 0, nil, nil)}},
			next:       Config{Anns: []Announcement{ann(1, 0, []topo.ASN{42}, nil)}},
			prevChange: []AnnChange{AnnShifted},
			newChange:  []AnnChange{AnnShifted},
			prevToNew:  []int16{0},
			lenShift:   []int32{2}, // a poison stuffs two ASNs (target + origin repeat)
			touched:    [][]topo.ASN{{42}},
			numDirty:   1,
			cost:       5,
		},
		{
			name:       "poison_swapped",
			prev:       Config{Anns: []Announcement{ann(1, 0, []topo.ASN{42}, nil)}},
			next:       Config{Anns: []Announcement{ann(1, 0, []topo.ASN{99}, nil)}},
			prevChange: []AnnChange{AnnShifted},
			newChange:  []AnnChange{AnnShifted},
			prevToNew:  []int16{0},
			lenShift:   []int32{0},
			touched:    [][]topo.ASN{{42, 99}},
			numDirty:   1,
			cost:       2,
		},
		{
			name:       "poison_reordered",
			prev:       Config{Anns: []Announcement{ann(1, 0, []topo.ASN{42, 99}, nil)}},
			next:       Config{Anns: []Announcement{ann(1, 0, []topo.ASN{99, 42}, nil)}},
			prevChange: []AnnChange{AnnShifted},
			newChange:  []AnnChange{AnnShifted},
			prevToNew:  []int16{0},
			lenShift:   []int32{0},
			touched:    [][]topo.ASN{nil}, // same set: nothing toggled, zero seeds
			numDirty:   1,
		},
		{
			name:       "community_changed",
			prev:       Config{Anns: []Announcement{ann(1, 2, []topo.ASN{42}, []Community{comm})}},
			next:       Config{Anns: []Announcement{ann(1, 2, []topo.ASN{42}, []Community{comm2})}},
			prevChange: []AnnChange{AnnReplaced},
			newChange:  []AnnChange{AnnReplaced},
			prevToNew:  []int16{-1},
			lenShift:   []int32{0},
			touched:    [][]topo.ASN{nil},
			numDirty:   1,
			cost:       8,
		},
		{
			name:       "mixed_multi_field",
			prev:       Config{Anns: []Announcement{ann(0, 0, nil, nil), ann(1, 1, []topo.ASN{7}, nil), ann(2, 0, nil, []Community{comm})}},
			next:       Config{Anns: []Announcement{ann(1, 1, []topo.ASN{8}, nil), ann(2, 0, nil, nil), ann(4, 0, nil, nil)}},
			prevChange: []AnnChange{AnnRemoved, AnnShifted, AnnReplaced},
			newChange:  []AnnChange{AnnShifted, AnnReplaced, AnnAdded},
			prevToNew:  []int16{-1, 0, -1},
			lenShift:   []int32{0, 0, 0},
			touched:    [][]topo.ASN{nil, {7, 8}, nil},
			numDirty:   4,
			cost:       19,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := DiffConfigs(tc.prev, tc.next)
			if d.Same != tc.same || d.Identity != tc.identity {
				t.Fatalf("Same=%v Identity=%v, want %v/%v", d.Same, d.Identity, tc.same, tc.identity)
			}
			if !reflect.DeepEqual(d.PrevChange, tc.prevChange) {
				t.Errorf("PrevChange %v, want %v", d.PrevChange, tc.prevChange)
			}
			if !reflect.DeepEqual(d.NewChange, tc.newChange) {
				t.Errorf("NewChange %v, want %v", d.NewChange, tc.newChange)
			}
			if !reflect.DeepEqual(d.PrevToNew, tc.prevToNew) {
				t.Errorf("PrevToNew %v, want %v", d.PrevToNew, tc.prevToNew)
			}
			if !reflect.DeepEqual(d.LenShift, tc.lenShift) {
				t.Errorf("LenShift %v, want %v", d.LenShift, tc.lenShift)
			}
			if !reflect.DeepEqual(d.PoisonTouched, tc.touched) {
				t.Errorf("PoisonTouched %v, want %v", d.PoisonTouched, tc.touched)
			}
			if d.NumDirty != tc.numDirty {
				t.Errorf("NumDirty %d, want %d", d.NumDirty, tc.numDirty)
			}
			if c := deltaCost(tc.prev, tc.next); c != tc.cost {
				t.Errorf("deltaCost %d, want %d", c, tc.cost)
			}

			// Key() consistency: the diff's Same verdict and canonical key
			// equality must agree — both define "routing-identical".
			if keyEq := tc.prev.Key() == tc.next.Key(); keyEq != d.Same {
				t.Errorf("Key equality %v disagrees with diff.Same %v", keyEq, d.Same)
			}
		})
	}
}

// TestDiffConfigsKeyConsistencyRandomized cross-checks diff.Same against
// Config.Key() over random config pairs and mutation pairs: the two
// notions of routing identity must never disagree.
func TestDiffConfigsKeyConsistencyRandomized(t *testing.T) {
	g, o := worldForTest(t, 33, 600)
	rng := stats.NewRNG(2024)
	// reused is diffed over every pair in turn, the way the delta path's
	// scratch diff is: it must always equal the fresh DiffConfigs.
	var reused ConfigDiff
	for trial := 0; trial < 200; trial++ {
		a := randomConfig(rng, g, o)
		var b Config
		if trial%2 == 0 {
			b = mutateConfig(rng, g, o, a)
		} else {
			b = randomConfig(rng, g, o)
		}
		d := DiffConfigs(a, b)
		reused.reset(a, b)
		if !sameDiff(d, reused) {
			t.Fatalf("trial %d: reused diff %+v, fresh %+v", trial, reused, d)
		}
		keyEq := a.Key() == b.Key()
		// Exception: Key preserves poison order (it shapes reported
		// AS-paths) while the diff treats a pure reorder as routing-
		// equivalent shift-0; Same stays false there, so only check the
		// directions that must hold.
		if keyEq && !d.Same {
			t.Fatalf("trial %d: equal keys but diff.Same=false (%v vs %v)", trial, a, b)
		}
		if d.Identity && !keyEq {
			t.Fatalf("trial %d: diff.Identity but keys differ (%v vs %v)", trial, a, b)
		}
	}
}

// sameDiff compares two diffs field by field, an empty slice equal to a
// nil one.
func sameDiff(x, y ConfigDiff) bool {
	if x.Same != y.Same || x.Identity != y.Identity || x.NumDirty != y.NumDirty ||
		!slices.Equal(x.PrevChange, y.PrevChange) || !slices.Equal(x.NewChange, y.NewChange) ||
		!slices.Equal(x.PrevToNew, y.PrevToNew) || !slices.Equal(x.LenShift, y.LenShift) ||
		len(x.PoisonTouched) != len(y.PoisonTouched) {
		return false
	}
	for i := range x.PoisonTouched {
		if !slices.Equal(x.PoisonTouched[i], y.PoisonTouched[i]) {
			return false
		}
	}
	return true
}
