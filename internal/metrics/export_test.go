package metrics

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// Histogram returns the named histogram, creating it with the bounds on
// first use (bounds are ignored on later lookups). No shipped family is
// a plain histogram; the export tests register one with it.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	return register(r, name, func() *Histogram { return NewHistogram(bounds) })
}
