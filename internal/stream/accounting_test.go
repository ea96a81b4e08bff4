package stream

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"net/netip"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/metrics"
)

// accountingGolden is the FNV-64a digest of everything an intake says
// about a fixed event script (TestIntakeAccountingDigest): every Harvest
// field of every read, every return value, the deploy sequence and both
// event counters after Close. It is the same at one and at three counter
// shards. Captured at 4763f99, while the intake still merged per-shard
// batches into a shared round.
const accountingGolden = 0x2b0ae26c3f79f91f

// TestIntakeAccountingDigest pins the intake's round accounting: events
// on every link and on one link id out of range, on both sides of a
// harvest; residue left unharvested when the epoch advances to a new
// configuration; events inside and after the settle window that advance
// opens; an idempotent re-apply and a stale epoch; then Status,
// TotalEvents, Close and one Ingest after Close. One goroutine does all
// of it, and no tick runs, so every number is the script's.
func TestIntakeAccountingDigest(t *testing.T) {
	for _, workers := range []int{1, 3} {
		h := fnv.New64a()
		accountingScript(t, h, workers)
		if got := h.Sum64(); got != accountingGolden {
			t.Errorf("workers=%d: accounting digest = %#x, want %#x: a count, exclusion, total or counter moved",
				workers, got, uint64(accountingGolden))
		}
	}
}

func accountingScript(t *testing.T, h hash.Hash64, workers int) {
	word := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	flag := func(ok bool) {
		if ok {
			word(1)
		} else {
			word(0)
		}
	}
	harvest := func(hv Harvest) {
		word(hv.Epoch)
		word(int64(hv.Config))
		word(int64(len(hv.Pkts)))
		for _, n := range hv.Pkts {
			word(n)
		}
		word(int64(len(hv.Bytes)))
		for _, n := range hv.Bytes {
			word(n)
		}
		word(hv.Total)
		word(hv.TotalBytes)
		word(hv.Settled)
	}
	fail := func(err error) {
		if err == nil {
			word(0)
			return
		}
		h.Write([]byte(err.Error()))
	}

	reg := metrics.NewRegistry()
	var deploys []int
	in, err := NewIntake(testAttribution(), Config{
		Workers:       workers,
		FlushInterval: time.Hour,
		Settle:        time.Hour,
		Metrics:       reg,
		Deploy:        func(cfgIdx int, _ map[uint32]uint8) { deploys = append(deploys, cfgIdx) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Events come from eight spoofed sources, so they spread over the
	// counter shards, on links 0, 1 and 5 (out of range: the test
	// attribution has two links).
	spoofed := func(seq int) netip.Addr { return netip.AddrFrom4([4]byte{198, 51, 100, byte(seq % 8)}) }
	links := []uint8{0, 1, 5}
	used := map[int]bool{}
	for s := 0; s < 8; s++ {
		for _, link := range links {
			ev := amp.Event{SpoofedSrc: spoofed(s), IngressLink: link}
			used[shardOf(&ev, workers)] = true
		}
	}
	if len(used) != workers {
		t.Fatalf("the script's sources reach %d of %d counter shards", len(used), workers)
	}
	// ingest feeds n events per link, stamped at.
	seq := 0
	ingest := func(n int, at time.Time) {
		for _, link := range links {
			for i := 0; i < n; i++ {
				seq++
				flag(in.Ingest(amp.Event{
					Time:        at,
					IngressLink: link,
					SpoofedSrc:  spoofed(seq),
					WireLen:     20 + seq%13,
				}))
			}
		}
	}

	ingest(7, time.Now())
	harvest(in.HarvestRound())
	ingest(5, time.Now())
	harvest(in.HarvestRound())
	ingest(4, time.Now()) // residue: no harvest sees it before the advance
	word(in.Epoch())
	fail(in.AdvanceEpoch(1, 2))
	word(in.Epoch())
	ingest(3, time.Now())                  // inside the settle window
	ingest(6, time.Now().Add(2*time.Hour)) // after it
	harvest(in.HarvestRound())
	fail(in.AdvanceEpoch(1, 2)) // idempotent re-apply
	fail(in.AdvanceEpoch(0, 1)) // stale
	harvest(in.Status())
	word(in.TotalEvents())
	in.Close()
	flag(in.Ingest(testEvent(0)))
	harvest(in.Status())
	word(in.TotalEvents())
	word(in.Epoch())
	word(int64(len(deploys)))
	for _, c := range deploys {
		word(int64(c))
	}
	word(reg.Counter("stream_events_total").Value())
	word(reg.Counter("stream_settle_excluded_total").Value())
}
