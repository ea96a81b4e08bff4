package tsdb

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

import "unsafe"

// Stats summarizes storage for the storage-budget and retention tests.
type Stats struct {
	Series     int
	Samples    int64 // across all tiers
	Bytes      int64 // capacity held across all tiers, 16 B a sample
	RawSamples int64 // tier-0 only
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

// Stats walks every series; cheap (lengths and capacities).
func (db *DB) Stats() Stats {
	all := db.allSeries()
	st := Stats{Series: len(all), Scrapes: db.scrapes.Load()}
	for _, s := range all {
		s.mu.Lock()
		for i := range s.tiers {
			t := &s.tiers[i]
			st.Samples += int64(len(t.pts))
			st.Bytes += int64(cap(t.pts)) * int64(unsafe.Sizeof(Point{}))
			if t.res == 0 {
				st.RawSamples += int64(len(t.pts))
			}
		}
		s.mu.Unlock()
	}
	return st
}
