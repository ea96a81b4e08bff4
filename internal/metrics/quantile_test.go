package metrics

import (
	"math"
	"sync/atomic"
	"testing"
)

// TestQuantileZeroBounds covers the zero-value-constructed histogram
// (empty bounds slice): Quantile must not index bounds[-1] and answers
// with the observed maximum instead.
func TestQuantileZeroBounds(t *testing.T) {
	h := &Histogram{counts: make([]atomic.Int64, 1)}
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	h.Observe(7)
	h.Observe(3)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("zero-bounds Quantile(%v) = %v, want max 7", q, got)
		}
	}
}

// TestQuantileEdgeCases locks the interpolation semantics at the
// boundaries: q=0 answers the lower edge of the first non-empty bucket,
// q=1 the upper bound of the last occupied bucket, overflow mass clamps
// to the last bound, and empty buckets advance the interpolation base.
func TestQuantileEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		bounds  []float64
		samples []float64
		q       float64
		want    float64
	}{
		{
			name:   "empty histogram",
			bounds: []float64{1, 2},
			q:      0.5,
			want:   0,
		},
		{
			name:    "q=0 lands on lower edge of first non-empty bucket",
			bounds:  []float64{1, 2, 4},
			samples: []float64{1.5, 1.5}, // bucket (1,2]
			q:       0,
			want:    1,
		},
		{
			name:    "q=1 reaches the containing bucket's upper bound",
			bounds:  []float64{1, 2, 4},
			samples: []float64{0.5, 1.5, 3},
			q:       1,
			want:    4,
		},
		{
			name:    "single bucket interpolates from zero",
			bounds:  []float64{10},
			samples: []float64{1, 2, 3, 4}, // all in (..,10]
			q:       0.5,
			want:    5, // 0 + (2/4)*(10-0)
		},
		{
			name:    "all mass in overflow clamps to last bound",
			bounds:  []float64{1, 2},
			samples: []float64{100, 200, 300},
			q:       0.5,
			want:    2,
		},
		{
			name:    "overflow tail clamps p99 to last bound",
			bounds:  []float64{1, 2},
			samples: []float64{0.5, 100},
			q:       0.99,
			want:    2,
		},
		{
			name:    "empty leading buckets advance the interpolation base",
			bounds:  []float64{1, 2, 4},
			samples: []float64{3, 3}, // bucket (2,4]; base must be 2, not 0
			q:       0.5,
			want:    3, // 2 + (1/2)*(4-2)
		},
		{
			name:    "median splits across buckets by rank",
			bounds:  []float64{1, 2, 3},
			samples: []float64{0.5, 1.5, 2.5, 2.6},
			q:       0.5,
			want:    2, // rank 2 exhausts bucket (1,2]: 1 + ((2-1)/1)*(2-1)
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.bounds)
			for _, s := range tc.samples {
				h.Observe(s)
			}
			if got := h.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// TestBucketQuantile pins the interpolation rule on bucket weights
// directly, fractional weights included, and checks each integer-weight
// row against a live Histogram holding the same counts.
func TestBucketQuantile(t *testing.T) {
	tests := []struct {
		name   string
		bounds []float64
		counts []float64 // len(bounds)+1, overflow last
		max    float64
		want   map[float64]float64 // q -> quantile
	}{
		{"empty histogram", []float64{1, 2}, []float64{0, 0, 0}, 0,
			map[float64]float64{0: 0, 0.5: 0, 0.99: 0, 1: 0}},
		{"zero-bounds histogram answers max", nil, []float64{2}, 7,
			map[float64]float64{0: 7, 0.5: 7, 0.99: 7, 1: 7}},
		{"all mass in overflow clamps to the last bound", []float64{1, 2}, []float64{0, 0, 3}, 300,
			map[float64]float64{0: 2, 0.5: 2, 0.99: 2, 1: 2}},
		{"empty buckets advance the interpolation base", []float64{1, 2, 4, 8}, []float64{0, 0, 2, 0, 0}, 3,
			map[float64]float64{0: 2, 0.5: 3, 0.99: 3.98, 1: 4}},
		{"rank walks occupied buckets and skips gaps", []float64{1, 2, 4, 8}, []float64{1, 0, 2, 1, 0}, 5,
			map[float64]float64{0: 0, 0.5: 3, 0.99: 7.84, 1: 8}},
		{"overflow tail clamps the high quantiles only", []float64{1, 2}, []float64{1, 0, 1}, 100,
			map[float64]float64{0: 0, 0.5: 1, 0.99: 2, 1: 2}},
		{"fractional weights interpolate like counts", []float64{10, 20}, []float64{0.5, 0.25, 0.25}, 0,
			map[float64]float64{0: 0, 0.5: 10, 0.625: 15, 1: 20}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			total, whole := 0.0, true
			for _, n := range tc.counts {
				total += n
				whole = whole && n == float64(int64(n))
			}
			count := func(i int) float64 { return tc.counts[i] }
			var h *Histogram
			if whole {
				h = &Histogram{bounds: tc.bounds, counts: make([]atomic.Int64, len(tc.counts))}
				for i, n := range tc.counts {
					h.counts[i].Store(int64(n))
				}
				h.count.Store(int64(total))
				h.maxBig.Store(math.Float64bits(tc.max))
			}
			for q, want := range tc.want {
				if got := bucketQuantile(q, tc.bounds, count, total, tc.max); got != want {
					t.Errorf("bucketQuantile(%v) = %v, want %v", q, got, want)
				}
				if h != nil {
					if got := h.Quantile(q); got != want {
						t.Errorf("Histogram.Quantile(%v) = %v, want %v", q, got, want)
					}
				}
			}
		})
	}
}
