package amp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
)

// planeDigest is TestPacketPlaneDigest's digest of the fixed stream
// below, captured on the one-datagram-per-syscall serve loops before
// they were batched. A change to it is a change in what the packet plane
// delivers, drops or counts.
const planeDigest = "c6eed1f20dc50f2ce0ab3061060b1bf7a6b2dfc9ec9d983b5485b4fdd6268ceb"

// TestPacketPlaneDigest sends one fixed stream of datagrams through
// Border → Honeypot, one window at a time, each waited for until every
// datagram is accounted. It digests every tap event in order (link,
// spoofed source, wire length), the border's Dropped and Filtered, the
// honeypot's Malformed and every amp_border_packets_total{outcome}
// child. The stream mixes valid requests from mapped and unmapped ASes,
// payloads from 0 to maxPayload bytes, a filtered request, a
// TypeResponse, a short header, a length mismatch and datagrams of
// headerLen+maxPayload+1 and 2 049 bytes; a catchment change falls
// between two windows, and undecodable datagrams also go straight to
// the honeypot.
func TestPacketPlaneDigest(t *testing.T) {
	reg := metrics.NewRegistry()
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	hp.SetMetrics(reg)
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr),
		map[uint32]uint8{100: 3, 200: 7, 300: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer border.Close()
	border.SetMetrics(reg)
	filteredSrc := netip.MustParseAddr("198.51.100.66")
	border.SetFilter(func(p *Packet) bool { return p.SpoofedSrc == filteredSrc })

	var (
		mu     sync.Mutex
		events []Event
	)
	hp.SetTap(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	outcomes := reg.CounterVec("amp_border_packets_total", "outcome")
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := func(as uint32, src string, plen int) []byte {
		payload := make([]byte, plen)
		for i := range payload {
			payload[i] = byte(i*7 + plen)
		}
		p := &Packet{Type: TypeRequest, IngressLink: LinkUnset, TrueSrcAS: as,
			SpoofedSrc: netip.MustParseAddr(src), Payload: payload}
		return mustMarshal(t, p)
	}
	// oversize is a full-length request header followed by more bytes
	// than it declares: n bytes in all.
	oversize := func(n int) []byte {
		d := req(100, "192.0.2.1", maxPayload)
		return append(d, make([]byte, n-len(d))...)
	}
	ases := []uint32{100, 200, 300, 999}
	window := func(w int) [][]byte {
		var out [][]byte
		for i := 0; i < 40; i++ {
			src := fmt.Sprintf("192.0.2.%d", (w*40+i)%250+1)
			out = append(out, req(ases[(w+i)%len(ases)], src, (w*40+i)*37%(maxPayload+1)))
		}
		return out
	}
	var (
		sent   int // datagrams sent to the border
		direct int // datagrams sent straight to the honeypot
	)
	malformed := [][]byte{
		req(100, "192.0.2.1", 8)[:headerLen-1],    // short header
		append(req(200, "192.0.2.2", 8), 0),       // length mismatch
		oversize(headerLen + maxPayload + 1),      // 1 417 bytes
		oversize(2049),                            // past the old 2 048-byte buffer
		append(req(300, "192.0.2.3", 0), 1, 2, 3), // mismatch on an empty payload
	}
	send := func(to net.Addr, ds [][]byte) {
		t.Helper()
		for _, d := range ds {
			if _, err := conn.WriteTo(d, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	settle := func() {
		t.Helper()
		waitFor(t, func() bool {
			mu.Lock()
			n := int64(len(events))
			mu.Unlock()
			return n+border.Dropped()+border.Filtered()+outcomes.With("malformed").Value() == int64(sent) &&
				hp.Malformed() == int64(direct)
		})
	}
	for w := 0; w < 6; w++ {
		ds := window(w)
		switch w {
		case 1:
			ds = append(ds[:20:20], append([][]byte{req(200, filteredSrc.String(), 16)}, ds[20:]...)...)
		case 2:
			resp := &Packet{Type: TypeResponse, IngressLink: LinkUnset, TrueSrcAS: 100,
				SpoofedSrc: netip.MustParseAddr("192.0.2.9"), Payload: []byte("answer")}
			ds = append([][]byte{mustMarshal(t, resp)}, ds...)
		case 3:
			ds = append(ds[:10:10], append(malformed, ds[10:]...)...)
			send(hp.Addr(), malformed)
			direct += len(malformed)
		case 4:
			border.SetCatchments(map[uint32]uint8{100: 5, 200: 7, 999: 1})
		}
		send(border.Addr(), ds)
		sent += len(ds)
		settle()
	}

	h := sha256.New()
	mu.Lock()
	for _, e := range events {
		src := e.SpoofedSrc.As4()
		h.Write([]byte{e.IngressLink})
		h.Write(src[:])
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(e.WireLen)))
	}
	n := len(events)
	mu.Unlock()
	fmt.Fprintf(h, "dropped=%d filtered=%d malformed=%d", border.Dropped(), border.Filtered(), hp.Malformed())
	for _, o := range []string{"dropped", "filtered", "forwarded", "malformed"} {
		fmt.Fprintf(h, " %s=%d", o, outcomes.With(o).Value())
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("%d events, dropped %d, filtered %d, border malformed %d, honeypot malformed %d",
		n, border.Dropped(), border.Filtered(), outcomes.With("malformed").Value(), hp.Malformed())
	if got != planeDigest {
		t.Fatalf("packet plane digest %s, want %s", got, planeDigest)
	}
}

// TestCloseEndsParkedServeLoops closes a border and a honeypot whose
// serve loops sit parked in a read with nothing to receive: Close must
// return, and both serve goroutines must exit.
func TestCloseEndsParkedServeLoops(t *testing.T) {
	before := runtime.NumGoroutine()
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{100: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One packet through both loops, so each has read, handled and gone
	// back to wait in its read.
	a, err := NewAttacker(100, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Flood(border.Addr(), 1, 8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hp.VolumeByLink()[1].Packets == 1 })
	// Nothing marks a loop as parked; give both time to get back to
	// their read and park in it.
	time.Sleep(10 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		border.Close()
		hp.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with the serve loops parked in a read")
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestServeSpansCountEveryPacket checks that each serve loop's span
// counts every datagram it read under exactly one outcome: malformed,
// dropped, filtered or forwarded at the border, malformed or accepted at
// the honeypot.
func TestServeSpansCountEveryPacket(t *testing.T) {
	tr := trace.New(trace.Options{Enabled: true})
	trace.SetGlobal(tr)
	defer trace.SetGlobal(trace.New(trace.Options{}))
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{100: 1, 200: 2})
	if err != nil {
		t.Fatal(err)
	}
	border.SetFilter(func(p *Packet) bool { return p.TrueSrcAS == 200 })
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := func(as uint32) []byte {
		return mustMarshal(t, &Packet{Type: TypeRequest, IngressLink: LinkUnset, TrueSrcAS: as,
			SpoofedSrc: netip.MustParseAddr("192.0.2.1"), Payload: []byte{1}})
	}
	for _, d := range [][]byte{[]byte("garbage"), req(100), req(200), req(300), req(100)} {
		if _, err := conn.WriteTo(d, border.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.WriteTo([]byte("garbage"), hp.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hp.VolumeByLink()[1].Packets == 2 && hp.Malformed() == 1 })
	waitFor(t, func() bool { return border.Dropped() == 1 && border.Filtered() == 1 })
	border.Close()
	hp.Close()

	want := map[string]map[string]int64{
		"amp.border.serve":   {"malformed": 1, "dropped": 1, "filtered": 1, "forwarded": 2},
		"amp.honeypot.serve": {"malformed": 1, "accepted": 2},
	}
	for _, rec := range tr.Snapshot() {
		outcomes, ok := want[rec.Name]
		if !ok {
			continue
		}
		delete(want, rec.Name)
		for _, c := range rec.Counters {
			if c.Name == "tap_events" {
				continue
			}
			if outcomes[c.Name] != c.Value {
				t.Errorf("%s counts %s %d, want %d", rec.Name, c.Name, c.Value, outcomes[c.Name])
			}
			delete(outcomes, c.Name)
		}
		for name, v := range outcomes {
			t.Errorf("%s has no %s counter, want %d", rec.Name, name, v)
		}
	}
	for name := range want {
		t.Errorf("no %s span recorded", name)
	}
}
