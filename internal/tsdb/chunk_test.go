package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// roundtrip encodes samples into one chunk and decodes them all back.
func roundtrip(t *testing.T, ts []int64, vs []float64) []Point {
	t.Helper()
	c := &chunk{}
	for i := range ts {
		c.append(ts[i], vs[i])
	}
	if c.n != len(ts) {
		t.Fatalf("chunk.n = %d, want %d", c.n, len(ts))
	}
	got := c.decode(nil, math.MinInt64, math.MaxInt64)
	if len(got) != len(ts) {
		t.Fatalf("decoded %d points, want %d", len(got), len(ts))
	}
	return got
}

func TestChunkRoundtripRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 500
	ts := make([]int64, n)
	vs := make([]float64, n)
	now := int64(1_700_000_000_000)
	v := 100.0
	for i := 0; i < n; i++ {
		// Jittered scrape cadence and a noisy random walk: worst
		// realistic case for both coders.
		now += 1000 + int64(rng.Intn(41)) - 20
		v += rng.NormFloat64() * 3
		ts[i], vs[i] = now, v
	}
	got := roundtrip(t, ts, vs)
	for i := range got {
		if got[i].T != ts[i] || got[i].V != vs[i] {
			t.Fatalf("point %d: got (%d, %v), want (%d, %v)", i, got[i].T, got[i].V, ts[i], vs[i])
		}
	}
}

func TestChunkRoundtripExtremeValues(t *testing.T) {
	ts := []int64{0, 1, 2, 1_000_000, 1_000_001, 5_000_000_000_000, 5_000_000_000_001, 5_000_000_000_002}
	vs := []float64{0, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), 0, 1e-300}
	got := roundtrip(t, ts, vs)
	for i := range got {
		if got[i].T != ts[i] || got[i].V != vs[i] {
			t.Fatalf("point %d: got (%d, %v), want (%d, %v)", i, got[i].T, got[i].V, ts[i], vs[i])
		}
	}
}

func TestChunkRoundtripNaN(t *testing.T) {
	got := roundtrip(t, []int64{10, 20, 30}, []float64{1, math.NaN(), 2})
	if !math.IsNaN(got[1].V) {
		t.Fatalf("NaN did not survive roundtrip: %v", got[1].V)
	}
	if got[0].V != 1 || got[2].V != 2 {
		t.Fatalf("neighbors of NaN corrupted: %+v", got)
	}
}

func TestChunkDecodeRange(t *testing.T) {
	c := &chunk{}
	for i := 0; i < 100; i++ {
		c.append(int64(i*1000), float64(i))
	}
	got := c.decode(nil, 25_000, 30_000)
	if len(got) != 6 {
		t.Fatalf("range decode returned %d points, want 6", len(got))
	}
	if got[0].T != 25_000 || got[5].T != 30_000 {
		t.Fatalf("range edges wrong: first %d last %d", got[0].T, got[5].T)
	}
	if got := c.decode(nil, 200_000, 300_000); len(got) != 0 {
		t.Fatalf("out-of-range decode returned %d points", len(got))
	}
}

func TestChunkSteadySeriesCompression(t *testing.T) {
	// The common shape: fixed scrape cadence, constant (or slowly
	// changing) value. Timestamp dod is 0 and the XOR is 0 — one bit
	// each — so a sample should cost well under a byte.
	c := &chunk{}
	const n = 1000
	for i := 0; i < n; i++ {
		c.append(int64(1_700_000_000_000+i*1000), 42)
	}
	perSample := float64(c.bytes()) / n
	if perSample > 0.5 {
		t.Fatalf("steady series costs %.2f bytes/sample, want <= 0.5", perSample)
	}
}

func TestBitWriterReaderRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w bitWriter
	type item struct {
		v uint64
		n uint
	}
	var items []item
	for i := 0; i < 2000; i++ {
		n := uint(1 + rng.Intn(64))
		v := rng.Uint64()
		if n < 64 {
			v &= (1 << n) - 1
		}
		items = append(items, item{v, n})
		w.writeBits(v, n)
	}
	r := newBitReader(w.buf)
	for i, it := range items {
		got, ok := r.readBits(it.n)
		if !ok {
			t.Fatalf("item %d: unexpected end of stream", i)
		}
		if got != it.v {
			t.Fatalf("item %d: got %#x, want %#x (n=%d)", i, got, it.v, it.n)
		}
	}
}

// TestChunkXORWindowEdges drives writeXOR through the XORs its zero
// counts treat specially — 1<<63 (no leading zeros, 63 trailing), 0
// (value repeated), 1 (63 leading, clamped to 31), all ones — and pins
// the encoded bytes, captured while the counts were hand-written loops.
func TestChunkXORWindowEdges(t *testing.T) {
	bitsOf := []uint64{0, 1 << 63, 1 << 63, 1<<63 | 1, 1<<63 | 1, ^uint64(0) >> 12, 0, 0, 1 << 63, 1<<62 | 1<<1}
	c := &chunk{}
	for i, b := range bitsOf {
		c.append(int64(1000*i), math.Float64frombits(b))
	}
	got := c.decode(nil, math.MinInt64, math.MaxInt64)
	if len(got) != len(bitsOf) {
		t.Fatalf("decoded %d points, want %d", len(got), len(bitsOf))
	}
	for i, p := range got {
		if math.Float64bits(p.V) != bitsOf[i] {
			t.Fatalf("point %d: bits %#x, want %#x", i, math.Float64bits(p.V), bitsOf[i])
		}
	}
	if enc, want := fmt.Sprintf("%x", c.w.buf), "00000000000000000000000000000000ebe7c0047f8000000002307d001ffffffffffffdb33fffffffffffff1800b07d8000000000000004"; enc != want {
		t.Fatalf("encoded chunk %s, want %s", enc, want)
	}
}
