package tsdb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"spooftrack/internal/metrics"
)

// historyDigest is the FNV-64a digest of every answer TestHistoryDigest
// hashes. It pins what the shipped readers get back from the store — the
// watchdog's 5m/1h Increase windows, and /query's raw, rate, sum and max
// modes over the dashboard's windows — across a day of history, so a
// change to how samples are kept cannot move one.
const historyDigest = 0x47a205a131777617

// TestHistoryDigest scripts 26h of 1s scrapes over a counter that resets
// and a two-child counter vector, and every 17 minutes hashes the answers
// the shipped readers depend on. Every window here lies inside the tiers'
// retention: the raw tier serves the ≤10m range reads whole, and a
// monotone counter's increase reads only each window's two ends.
func TestHistoryDigest(t *testing.T) {
	reg := metrics.NewRegistry()
	restarts := settableGauge(reg, "restarts_total") // a gauge lets the script force resets
	vec := reg.CounterVec("packets_total", "link")
	db := New(Options{Registry: reg})

	const (
		seconds    = 26 * 3600
		checkEvery = 17 * 60
	)
	rng := rand.New(rand.NewSource(7))
	sum := fnv.New64a()
	var word [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(word[:], u)
		sum.Write(word[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	putOK := func(ok bool) {
		if ok {
			put(1)
		} else {
			put(0)
		}
	}
	answers := 0
	restartValue := 0.0
	for sec := 0; sec < seconds; sec++ {
		restartValue += float64(rng.Intn(50))
		if rng.Intn(3000) == 0 {
			restartValue = float64(rng.Intn(10)) // process restart
		}
		restarts.Set(restartValue)
		vec.With("a").Add(int64(100 + rng.Intn(20)))
		vec.With("b").Add(int64(rng.Intn(5)))
		now := t0.Add(time.Duration(sec) * time.Second)
		db.ScrapeOnce(now)
		if sec%checkEvery != 0 {
			continue
		}
		for _, w := range []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute} {
			for _, family := range []string{"restarts_total", "packets_total"} {
				for _, q := range []Query{
					{Series: family},
					{Series: family, Rate: true},
					{Series: family, Agg: "sum"},
					{Series: family, Rate: true, Agg: "max"},
				} {
					q.From, q.To = now.Add(-w), now
					got := db.Query(q)
					put(uint64(len(got)))
					for _, sd := range got {
						sum.Write([]byte(sd.Family + "\x00" + sd.Child + "\x00" + sd.Kind + "\x00"))
						put(uint64(len(sd.Points)))
						for _, p := range sd.Points {
							put(uint64(p.T))
							putF(p.V)
						}
					}
					answers++
				}
			}
		}
		for _, w := range []time.Duration{5 * time.Minute, time.Hour} {
			delta, dt, ok := db.Increase("packets_total", "", now.Add(-w), now)
			putF(delta)
			putF(dt)
			putOK(ok)
			answers++
		}
	}
	if got := sum.Sum64(); got != historyDigest {
		t.Fatalf("history digest over %d answers = %#x, want %#x", answers, got, uint64(historyDigest))
	}
}
