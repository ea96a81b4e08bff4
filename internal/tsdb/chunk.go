package tsdb

import (
	"math"
	"math/bits"
)

// chunk is one Gorilla-compressed run of (timestamp, value) samples for
// a single series, append-only and time-ordered:
//
//   - Timestamps are delta-of-delta coded (Facebook's Gorilla, §4.1):
//     a scrape ticker produces near-constant deltas, so the second
//     difference is almost always zero — one bit per sample — with
//     escape buckets of 7/9/12/32/64 bits absorbing jitter.
//   - Values are XOR coded (§4.1.2): successive samples of a counter or
//     gauge share sign/exponent and most mantissa bits, so the XOR is a
//     short run of meaningful bits; an unchanged value costs one bit.
//
// Timestamps are unix milliseconds. A chunk is owned by its series and
// guarded by the series lock; it has no locking of its own.
type chunk struct {
	w bitWriter
	n int // samples

	tFirst int64 // unix ms of the first sample
	tLast  int64 // unix ms of the last sample
	tDelta int64 // last timestamp delta

	vPrev             uint64 // bits of the last value
	leading, trailing uint8  // current XOR bit window (leadSentinel = none)
}

// leadSentinel marks "no previous XOR window" (real leading counts are
// capped at 31 so they fit the 5-bit field).
const leadSentinel = 0xff

// append adds one sample. Timestamps must be non-decreasing; the caller
// (the series appender) guarantees ordering.
func (c *chunk) append(t int64, v float64) {
	vb := math.Float64bits(v)
	switch c.n {
	case 0:
		c.tFirst, c.tLast = t, t
		c.leading = leadSentinel
		c.w.writeBits(uint64(t), 64)
		c.w.writeBits(vb, 64)
		c.vPrev = vb
		c.n = 1
		return
	case 1:
		c.tDelta = t - c.tLast
		// First delta: delta-of-delta against an implicit zero previous
		// delta, so it rides the same escape buckets.
		c.writeDoD(c.tDelta)
	default:
		delta := t - c.tLast
		c.writeDoD(delta - c.tDelta)
		c.tDelta = delta
	}
	c.tLast = t
	c.writeXOR(vb)
	c.n++
}

// writeDoD encodes a delta-of-delta with Gorilla's prefix buckets.
func (c *chunk) writeDoD(dod int64) {
	switch {
	case dod == 0:
		c.w.writeBit(false)
	case dod >= -63 && dod <= 64:
		c.w.writeBits(0b10, 2)
		c.w.writeBits(uint64(dod+63), 7)
	case dod >= -255 && dod <= 256:
		c.w.writeBits(0b110, 3)
		c.w.writeBits(uint64(dod+255), 9)
	case dod >= -2047 && dod <= 2048:
		c.w.writeBits(0b1110, 4)
		c.w.writeBits(uint64(dod+2047), 12)
	case dod >= -(1<<31) && dod < 1<<31:
		c.w.writeBits(0b11110, 5)
		c.w.writeBits(uint64(dod+(1<<31)), 32)
	default:
		c.w.writeBits(0b11111, 5)
		c.w.writeBits(uint64(dod), 64)
	}
}

// writeXOR encodes a value against the previous one.
func (c *chunk) writeXOR(vb uint64) {
	xor := vb ^ c.vPrev
	c.vPrev = vb
	if xor == 0 {
		c.w.writeBit(false)
		return
	}
	c.w.writeBit(true)
	lead := uint8(bits.LeadingZeros64(xor))
	if lead > 31 {
		lead = 31
	}
	trail := uint8(bits.TrailingZeros64(xor))
	if c.leading != leadSentinel && lead >= c.leading && trail >= c.trailing {
		// Fits the previous window: '0' + meaningful bits.
		c.w.writeBit(false)
		c.w.writeBits(xor>>c.trailing, uint(64-c.leading-c.trailing))
		return
	}
	c.leading, c.trailing = lead, trail
	meaningful := 64 - lead - trail // >= 1 since xor != 0
	c.w.writeBit(true)
	c.w.writeBits(uint64(lead), 5)
	c.w.writeBits(uint64(meaningful-1), 6)
	c.w.writeBits(xor>>trail, uint(meaningful))
}

// bytes returns the encoded size so far.
func (c *chunk) bytes() int { return len(c.w.buf) }

// decode appends the chunk's samples with t in [from, to] to dst. Pass
// math.MinInt64/MaxInt64 to take everything. Decoding reads the live
// buffer, so the caller must hold the owning series lock.
func (c *chunk) decode(dst []Point, from, to int64) []Point {
	if c.n == 0 || c.tFirst > to || c.tLast < from {
		return dst
	}
	r := newBitReader(c.w.buf)
	tb, _ := r.readBits(64)
	vb, _ := r.readBits(64)
	t := int64(tb)
	v := vb
	if t >= from && t <= to {
		dst = append(dst, Point{T: t, V: math.Float64frombits(v)})
	}
	var delta int64
	var leading, trailing uint8 = leadSentinel, 0
	for i := 1; i < c.n; i++ {
		dod, ok := c.readDoD(r)
		if !ok {
			break
		}
		delta += dod
		t += delta
		v, leading, trailing, ok = readXOR(r, v, leading, trailing)
		if !ok {
			break
		}
		if t > to {
			break
		}
		if t >= from {
			dst = append(dst, Point{T: t, V: math.Float64frombits(v)})
		}
	}
	return dst
}

// readDoD decodes one delta-of-delta.
func (c *chunk) readDoD(r *bitReader) (int64, bool) {
	b, ok := r.readBit()
	if !ok {
		return 0, false
	}
	if !b { // '0'
		return 0, true
	}
	if b, ok = r.readBit(); !ok {
		return 0, false
	}
	if !b { // '10'
		v, ok := r.readBits(7)
		return int64(v) - 63, ok
	}
	if b, ok = r.readBit(); !ok {
		return 0, false
	}
	if !b { // '110'
		v, ok := r.readBits(9)
		return int64(v) - 255, ok
	}
	if b, ok = r.readBit(); !ok {
		return 0, false
	}
	if !b { // '1110'
		v, ok := r.readBits(12)
		return int64(v) - 2047, ok
	}
	if b, ok = r.readBit(); !ok {
		return 0, false
	}
	if !b { // '11110'
		v, ok := r.readBits(32)
		return int64(v) - (1 << 31), ok
	}
	v, ok := r.readBits(64) // '11111'
	return int64(v), ok
}

// readXOR decodes one XOR-coded value given the previous value bits and
// bit window.
func readXOR(r *bitReader, prev uint64, leading, trailing uint8) (v uint64, lead, trail uint8, ok bool) {
	b, ok := r.readBit()
	if !ok {
		return 0, 0, 0, false
	}
	if !b {
		return prev, leading, trailing, true
	}
	if b, ok = r.readBit(); !ok {
		return 0, 0, 0, false
	}
	if b {
		l, ok := r.readBits(5)
		if !ok {
			return 0, 0, 0, false
		}
		m, ok := r.readBits(6)
		if !ok {
			return 0, 0, 0, false
		}
		leading = uint8(l)
		trailing = 64 - leading - (uint8(m) + 1)
	}
	bits, ok := r.readBits(uint(64 - leading - trailing))
	if !ok {
		return 0, 0, 0, false
	}
	return prev ^ (bits << trailing), leading, trailing, true
}
