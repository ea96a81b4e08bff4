package tsdb

// bitWriter appends bits MSB-first into a byte slice. It is the
// substrate of the Gorilla-style chunk encoding: timestamps and values
// compress to a handful of bits per sample, so the writer's unit of
// account is the bit, not the byte.
type bitWriter struct {
	buf   []byte
	nbits uint8 // bits already used in the last byte (0..7; 0 = full)
}

// writeBit appends one bit.
func (w *bitWriter) writeBit(bit bool) {
	if w.nbits == 0 {
		w.buf = append(w.buf, 0)
		w.nbits = 8
	}
	if bit {
		w.buf[len(w.buf)-1] |= 1 << (w.nbits - 1)
	}
	w.nbits--
}

// writeBits appends the low n bits of v, MSB first (n <= 64).
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		if w.nbits == 0 {
			w.buf = append(w.buf, 0)
			w.nbits = 8
		}
		take := uint(w.nbits)
		if take > n {
			take = n
		}
		// Highest `take` of the remaining n bits land in the current byte.
		chunk := byte(v >> (n - take))
		w.buf[len(w.buf)-1] |= chunk << (uint(w.nbits) - take)
		w.nbits -= uint8(take)
		n -= take
	}
}

// bitReader consumes bits MSB-first from a byte slice.
type bitReader struct {
	buf []byte
	pos int   // next byte index
	rem uint8 // unread bits left in buf[pos-1] (0 = fetch next byte)
}

func newBitReader(buf []byte) *bitReader { return &bitReader{buf: buf} }

// readBit returns the next bit; ok=false at end of stream.
func (r *bitReader) readBit() (bit, ok bool) {
	if r.rem == 0 {
		if r.pos >= len(r.buf) {
			return false, false
		}
		r.pos++
		r.rem = 8
	}
	b := r.buf[r.pos-1]
	r.rem--
	return b&(1<<r.rem) != 0, true
}

// readBits returns the next n bits as the low bits of a uint64.
func (r *bitReader) readBits(n uint) (v uint64, ok bool) {
	for n > 0 {
		if r.rem == 0 {
			if r.pos >= len(r.buf) {
				return 0, false
			}
			r.pos++
			r.rem = 8
		}
		take := uint(r.rem)
		if take > n {
			take = n
		}
		b := r.buf[r.pos-1]
		chunk := (uint64(b) >> (uint(r.rem) - take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.rem -= uint8(take)
		n -= take
	}
	return v, true
}
