package amp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
)

// honeypotReadDigest is TestHoneypotReadDigest's digest, captured while
// the honeypot still read up to 32 datagrams of at most slotLen bytes
// with one recvmmsg(2). A change to it is a change in what the honeypot
// taps, accounts or counts as malformed.
const honeypotReadDigest = "350b68dc33b93f9b6f5916db915c3ad9b1b557dbf97ef534c7f160e2a3996e82"

// TestHoneypotReadDigest puts what the honeypot reads through every
// shape it can arrive in and digests every tap event in order (link,
// spoofed source, wire length), Malformed, VolumeByLink and every
// amp_honeypot_* child. The attacker floods bursts of 32, 32 and 6
// requests with 8-, 0- and 1 400-byte payloads through the border, each
// burst a GSO message the border forwards as one; the border then reads
// one batch of mixed lengths, malformed datagrams and an unmapped AS
// between its runs. Datagrams of 0, 15, 1 417, 2 049 and 65 000 bytes,
// and then one valid request, go straight to the honeypot.
func TestHoneypotReadDigest(t *testing.T) {
	g := newGatedPlane(t)
	reg := metrics.NewRegistry()
	g.hp.SetMetrics(reg)
	var events []Event
	drain := func() {
		g.mu.Lock()
		events = append(events, g.events...)
		g.events = nil
		g.mu.Unlock()
	}

	a, err := NewAttacker(100, netip.MustParseAddr("198.51.100.7"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var flooded int64
	for _, plen := range []int{8, 0, maxPayload} {
		payload := make([]byte, plen)
		for i := range payload {
			payload[i] = byte(i*11 + plen)
		}
		for _, n := range []int{batchSize, batchSize, 6} {
			if sent, err := a.FloodPayload(g.border.Addr(), n, payload); err != nil || sent != n {
				t.Fatalf("flood of %d %d-byte payloads sent %d: %v", n, plen, sent, err)
			}
			flooded += int64(n)
			waitFor(t, func() bool { return g.hp.VolumeByLink()[1].Packets == flooded })
		}
	}
	drain()

	var batch [][]byte
	for i, plen := range []int{8, 8, 8, 1400, 0, 0, 8, -1, 8, 8, 1400, 1400, -2, 0, 8, 8, 8, 8, 1400} {
		id := byte(i + 1)
		switch plen {
		case -1:
			batch = append(batch, []byte("garbage"))
		case -2:
			batch = append(batch, request(t, 999, id, 8))
		default:
			batch = append(batch, request(t, 100, id, plen))
		}
	}
	events = append(events, g.send(t, batch)[0]...)

	// oversize is a full-length request header followed by more bytes
	// than it declares: n bytes in all.
	oversize := func(n int) []byte {
		d := request(t, 100, 200, maxPayload)
		return append(d, make([]byte, n-len(d))...)
	}
	direct := [][]byte{
		{},
		request(t, 100, 201, 8)[:headerLen-1],
		oversize(headerLen + maxPayload + 1),
		oversize(2049),
		oversize(65000),
		request(t, 100, 202, 8),
	}
	for _, d := range direct {
		if _, err := g.conn.WriteTo(d, g.hp.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return g.hp.VolumeByLink()[LinkUnset].Packets == 1 })
	drain()

	h := sha256.New()
	for _, e := range events {
		src := e.SpoofedSrc.As4()
		h.Write([]byte{e.IngressLink})
		h.Write(src[:])
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(e.WireLen)))
	}
	fmt.Fprintf(h, "malformed=%d", g.hp.Malformed())
	vol := g.hp.VolumeByLink()
	links := make([]int, 0, len(vol))
	for l := range vol {
		links = append(links, int(l))
	}
	sort.Ints(links)
	for _, l := range links {
		fmt.Fprintf(h, " link%d=%d/%d", l, vol[uint8(l)].Packets, vol[uint8(l)].Bytes)
	}
	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(page.String(), "\n") {
		if strings.HasPrefix(line, "amp_honeypot_") {
			fmt.Fprintln(h, line)
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("%d events, malformed %d, volume %v", len(events), g.hp.Malformed(), vol)
	if got != honeypotReadDigest {
		t.Fatalf("honeypot read digest %s, want %s", got, honeypotReadDigest)
	}
}

// BenchmarkHoneypotRead sends bursts of 32 requests from a client socket
// through a border to a honeypot, one burst per op, each waited for
// until the tap has seen all of it. In "runs" every request has one
// length, so the border forwards each burst as one GSO message; in
// "singles" the lengths alternate, so it forwards 32 messages of one
// datagram. It reports the process CPU time per delivered packet
// (cpu-ns/pkt; the client's send and the border are in it too, the same
// in both cases) and the datagrams per honeypot read, from the
// amp.honeypot.serve span.
func BenchmarkHoneypotRead(b *testing.B) {
	for _, c := range []struct {
		name  string
		plens []int
	}{
		{"runs", []int{8}},
		{"singles", []int{8, 9}},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr := trace.New(trace.Options{Enabled: true})
			trace.SetGlobal(tr)
			defer trace.SetGlobal(trace.New(trace.Options{}))
			hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer hp.Close()
			// The tap wakes the sender when the burst's last packet is in.
			var tapped, want atomic.Int64
			delivered := make(chan struct{}, 1)
			hp.SetTap(func(Event) {
				if tapped.Add(1) == want.Load() {
					delivered <- struct{}{}
				}
			})
			border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{100: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer border.Close()
			conn, err := listenUDP("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			var out sender
			if err := out.init(conn); err != nil {
				b.Fatal(err)
			}
			burst := make([][]byte, batchSize)
			for i := range burst {
				p := Packet{Type: TypeRequest, IngressLink: LinkUnset, TrueSrcAS: 100,
					SpoofedSrc: netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}),
					Payload:    make([]byte, c.plens[i%len(c.plens)])}
				if burst[i], err = p.Marshal(); err != nil {
					b.Fatal(err)
				}
			}
			to := addrPort(border.Addr().(*net.UDPAddr))
			send := func() {
				want.Add(batchSize)
				for _, d := range burst {
					out.queue(d)
				}
				if n, err := out.flush(to); err != nil || n != batchSize {
					b.Fatalf("sent %d of %d: %v", n, batchSize, err)
				}
				select {
				case <-delivered:
				case <-time.After(5 * time.Second):
					b.Fatalf("%d of %d packets of a burst delivered", batchSize-(want.Load()-tapped.Load()), batchSize)
				}
			}
			for range 4 {
				send()
			}
			cpu0 := processCPU(b)
			b.ResetTimer()
			for range b.N {
				send()
			}
			b.StopTimer()
			cpu := processCPU(b) - cpu0
			border.Close()
			hp.Close()
			var reads, accepted int64
			for _, rec := range tr.Snapshot() {
				if rec.Name != "amp.honeypot.serve" {
					continue
				}
				for _, ctr := range rec.Counters {
					switch ctr.Name {
					case "reads":
						reads = ctr.Value
					case "accepted":
						accepted = ctr.Value
					}
				}
			}
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N*batchSize), "cpu-ns/pkt")
			if reads > 0 {
				b.ReportMetric(float64(accepted)/float64(reads), "dgrams/read")
			}
		})
	}
}

// processCPU is the process's user and system CPU time so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
