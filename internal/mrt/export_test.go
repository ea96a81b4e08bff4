package mrt

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

import "io"

// ReadUpdate reads one MRT record. It returns io.EOF at a clean end of
// stream.
func ReadUpdate(r io.Reader) (*Update, error) {
	d := decoder{r: r}
	return d.next()
}
