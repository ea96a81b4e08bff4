//go:build !race

package amp

import (
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/metrics"
)

// TestPacketPlaneAllocatesNothing sends requests through attacker →
// Border → Honeypot → tap with metrics attached on both serve loops and
// counts mallocs per delivered packet: none, the attacker encoding each
// burst into a buffer of its own, bar what the runtime allocates on its
// own beside the test. Behind !race, whose instrumentation allocates on
// its own.
func TestPacketPlaneAllocatesNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	hp.SetMetrics(reg)
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{100: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer border.Close()
	border.SetMetrics(reg)
	var tapped atomic.Int64
	hp.SetTap(func(Event) { tapped.Add(1) })
	a, err := NewAttacker(100, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A burst at a time, each waited for, so the loopback socket buffers
	// never overrun and every packet sent is delivered.
	const burst = 32
	payload := make([]byte, 8)
	deliver := func(n int) {
		for i := 0; i < n; i += burst {
			want := tapped.Load() + burst
			if _, err := a.FloodPayload(border.Addr(), burst, payload); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for tapped.Load() < want {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d packets of a burst delivered", burst-(want-tapped.Load()), burst)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	// Warm: metric children, link stats, the victim's rate window.
	deliver(4 * burst)

	const pkts = 64 * burst
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deliver(pkts)
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / pkts; per > 0.01 {
		t.Fatalf("packet plane allocates %.3f times per packet, want ≤ 0.01", per)
	}
}

// TestWarmSetCatchmentsAllocatesNothing: the border copies each table
// into the spare the previous swap retired, so after two replacements a
// third allocates nothing.
func TestWarmSetCatchmentsAllocatesNothing(t *testing.T) {
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer border.Close()
	table := make(map[uint32]uint8, 1000)
	for asn := uint32(0); asn < 1000; asn++ {
		table[64000+asn] = uint8(asn % 7)
	}
	link := uint8(0)
	set := func() {
		link++
		table[64000] = link
		border.SetCatchments(table)
	}
	set()
	set()
	if got := testing.AllocsPerRun(100, set); got != 0 {
		t.Fatalf("a warm SetCatchments allocates %v, want 0", got)
	}
}
