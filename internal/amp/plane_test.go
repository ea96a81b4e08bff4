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
// type-2 packet, a short header, a length mismatch and datagrams of
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
			resp := &Packet{Type: PacketType(2), IngressLink: LinkUnset, TrueSrcAS: 100,
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
// the honeypot. The honeypot's reads count reads, not datagrams, and
// TestForwardedRunIsOneRead checks them.
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
			if c.Name == "tap_events" || c.Name == "reads" {
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

// gateAS marks gatedPlane's gate packets: the border maps it to link
// gateLink, so gate events split the honeypot's tap into batches.
const (
	gateAS   = 4242
	gateLink = 9
)

// gatedPlane is a border and a honeypot whose border filter holds the
// serve loop on each gate packet until the batch after it has been
// sent, so that batch waits in the border's socket and reaches the loop
// in one read.
type gatedPlane struct {
	border  *Border
	hp      *Honeypot
	conn    net.PacketConn
	entered chan struct{}
	release chan struct{}

	mu     sync.Mutex
	events []Event
}

// newGatedPlane starts a gated border and honeypot, which map TrueSrcAS
// 100 to link 1; the test's cleanup closes them.
func newGatedPlane(t *testing.T) *gatedPlane {
	t.Helper()
	g := &gatedPlane{entered: make(chan struct{}), release: make(chan struct{})}
	var err error
	if g.hp, err = NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.hp.Close() })
	g.hp.SetTap(func(e Event) {
		g.mu.Lock()
		g.events = append(g.events, e)
		g.mu.Unlock()
	})
	if g.border, err = NewBorder("127.0.0.1:0", g.hp.Addr().(*net.UDPAddr),
		map[uint32]uint8{100: 1, gateAS: gateLink}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.border.Close() })
	g.border.SetFilter(func(p *Packet) bool {
		if p.TrueSrcAS == gateAS {
			g.entered <- struct{}{}
			<-g.release
		}
		return false
	})
	if g.conn, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.conn.Close() })
	return g
}

// send writes each batch to the border behind a gate packet of its own,
// then returns the events each batch delivered: the honeypot's tap
// between one gate event and the next, in order.
func (g *gatedPlane) send(t *testing.T, batches ...[][]byte) [][]Event {
	t.Helper()
	gate := mustMarshal(t, &Packet{Type: TypeRequest, IngressLink: LinkUnset, TrueSrcAS: gateAS,
		SpoofedSrc: netip.MustParseAddr("203.0.113.1")})
	write := func(d []byte) {
		if _, err := g.conn.WriteTo(d, g.border.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for _, ds := range append(batches, nil) {
		write(gate)
		<-g.entered
		for _, d := range ds {
			write(d)
		}
		g.release <- struct{}{}
	}
	gates := func() (n int) {
		g.mu.Lock()
		defer g.mu.Unlock()
		for _, e := range g.events {
			if e.IngressLink == gateLink {
				n++
			}
		}
		return n
	}
	waitFor(t, func() bool { return gates() == len(batches)+1 })
	g.mu.Lock()
	defer g.mu.Unlock()
	var out [][]Event
	for _, e := range g.events {
		if e.IngressLink == gateLink {
			out = append(out, nil)
		} else if len(out) > 0 {
			out[len(out)-1] = append(out[len(out)-1], e)
		}
	}
	g.events = nil
	return out[:len(batches)]
}

// request is a request from TrueSrcAS as with the given payload length;
// its spoofed source 192.0.2.<id> names it in the tap.
func request(t *testing.T, as uint32, id byte, plen int) []byte {
	return mustMarshal(t, &Packet{Type: TypeRequest, IngressLink: LinkUnset, TrueSrcAS: as,
		SpoofedSrc: netip.AddrFrom4([4]byte{192, 0, 2, id}), Payload: make([]byte, plen)})
}

// checkDelivered fails unless events are the requests of want, whole and
// in order, each once, stamped with link 1.
func checkDelivered(t *testing.T, events []Event, want [][]byte) {
	t.Helper()
	var got, exp []string
	for _, e := range events {
		got = append(got, fmt.Sprintf("%v/%d/link%d", e.SpoofedSrc, e.WireLen, e.IngressLink))
	}
	for _, d := range want {
		var p Packet
		if err := p.decode(d); err != nil {
			t.Fatal(err)
		}
		exp = append(exp, fmt.Sprintf("%v/%d/link1", p.SpoofedSrc, len(d)))
	}
	if fmt.Sprint(got) != fmt.Sprint(exp) {
		t.Fatalf("delivered %v, want %v", got, exp)
	}
}

// TestForwardMixedLengthsInOrder hands the border one read of requests
// whose lengths run 24, 24, 1 416, 24, 16 (an empty payload) and on,
// with a malformed datagram and an unmapped AS between runs of one
// length: every request reaches the honeypot once, in arrival order.
func TestForwardMixedLengthsInOrder(t *testing.T) {
	g := newGatedPlane(t)
	var batch, want [][]byte
	for i, plen := range []int{8, 8, 1400, 8, 0, 0, 1400, 1400, 8, -1, 8, 8, -2, 8, 0, 1400} {
		id := byte(i + 1)
		switch plen {
		case -1:
			batch = append(batch, []byte("garbage"))
		case -2:
			batch = append(batch, request(t, 999, id, 8))
		default:
			d := request(t, 100, id, plen)
			batch, want = append(batch, d), append(want, d)
		}
	}
	got := g.send(t, batch, batch)
	checkDelivered(t, got[0], want)
	checkDelivered(t, got[1], want)
}
