package mrt

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

import "io"

// NewReader returns a Reader of r.
func NewReader(r io.Reader) *Reader {
	rd := new(Reader)
	rd.Reset(r)
	return rd
}

// ReadUpdate reads one MRT record through a fresh Reader. It returns
// io.EOF at a clean end of stream.
func ReadUpdate(r io.Reader) (*Update, error) { return NewReader(r).Next() }

// ReadAll parses a whole MRT stream of at most maxMRTBytes into updates
// the caller owns.
func ReadAll(r io.Reader) ([]*Update, error) {
	rd := NewReader(r)
	var out []*Update
	for {
		u, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		// The copy takes the path over; the Reader decodes the next one
		// into a fresh slice.
		c := *u
		rd.msg.Path = nil
		out = append(out, &c)
	}
}
