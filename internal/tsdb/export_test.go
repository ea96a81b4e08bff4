package tsdb

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// Stats summarizes storage for the compression-budget and retention
// tests.
type Stats struct {
	Series     int
	Samples    int64 // across all tiers
	Bytes      int64 // compressed payload across all tiers
	RawSamples int64 // tier-0 only
	RawBytes   int64
	Scrapes    int64
}

// allSeries snapshots the series set, so a caller can walk it (taking
// each series' own lock) without holding db.mu.
func (db *DB) allSeries() []*series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	all := make([]*series, 0, len(db.series))
	for _, s := range db.series {
		all = append(all, s)
	}
	return all
}

// Stats walks every series; cheap (counts, not decodes).
func (db *DB) Stats() Stats {
	all := db.allSeries()
	st := Stats{Series: len(all), Scrapes: db.scrapes.Load()}
	for _, s := range all {
		s.mu.Lock()
		for i := range s.tiers {
			t := &s.tiers[i]
			for _, c := range t.chunks {
				st.Samples += int64(c.n)
				st.Bytes += int64(c.bytes())
				if t.res == 0 {
					st.RawSamples += int64(c.n)
					st.RawBytes += int64(c.bytes())
				}
			}
		}
		s.mu.Unlock()
	}
	return st
}

// bytes returns the encoded size so far.
func (c *chunk) bytes() int { return len(c.w.buf) }
