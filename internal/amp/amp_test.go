package amp

import (
	"net"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Type:        TypeRequest,
		IngressLink: 3,
		TrueSrcAS:   64512,
		SpoofedSrc:  netip.MustParseAddr("192.0.2.7"),
		Payload:     []byte("monlist"),
	}
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.IngressLink != p.IngressLink ||
		got.TrueSrcAS != p.TrueSrcAS || got.SpoofedSrc != p.SpoofedSrc ||
		string(got.Payload) != string(p.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(link uint8, asn uint32, ip [4]byte, payload []byte) bool {
		if len(payload) > maxPayload {
			payload = payload[:maxPayload]
		}
		p := &Packet{
			Type:        TypeResponse,
			IngressLink: link,
			TrueSrcAS:   asn,
			SpoofedSrc:  netip.AddrFrom4(ip),
			Payload:     payload,
		}
		data, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		if got.IngressLink != link || got.TrueSrcAS != asn || got.SpoofedSrc != p.SpoofedSrc {
			return false
		}
		if len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		make([]byte, headerLen),                  // zero magic
		append(mustMarshal(t, validReq()), 0xff), // trailing byte
		mustMarshal(t, validReq())[:headerLen-1], // truncated header
	}
	for i, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Corrupt the type field.
	data := mustMarshal(t, validReq())
	data[4] = 99
	if _, err := Unmarshal(data); err == nil {
		t.Error("bad type accepted")
	}
	// Corrupt declared payload length.
	data = mustMarshal(t, validReq())
	data[14], data[15] = 0xff, 0xff
	if _, err := Unmarshal(data); err == nil {
		t.Error("bad length accepted")
	}
}

func validReq() *Packet {
	return &Packet{
		Type:       TypeRequest,
		TrueSrcAS:  1,
		SpoofedSrc: netip.MustParseAddr("192.0.2.1"),
		Payload:    []byte{1, 2, 3},
	}
}

func mustMarshal(t *testing.T, p *Packet) []byte {
	t.Helper()
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestMarshalRejectsBadPackets(t *testing.T) {
	big := validReq()
	big.Payload = make([]byte, maxPayload+1)
	if _, err := big.Marshal(); err == nil {
		t.Error("oversized payload accepted")
	}
	v6 := validReq()
	v6.SpoofedSrc = netip.MustParseAddr("2001:db8::1")
	if _, err := v6.Marshal(); err == nil {
		t.Error("IPv6 spoofed source accepted")
	}
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

func TestEndToEndPipeline(t *testing.T) {
	victimAddr := netip.MustParseAddr("192.0.2.99")

	// Victim listener measures reflected traffic.
	victimConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer victimConn.Close()
	victimUDP := victimConn.LocalAddr().(*net.UDPAddr)
	victimBytes := make(chan int, 1024)
	go func() {
		buf := make([]byte, 2048)
		for {
			n, _, err := victimConn.ReadFrom(buf)
			if err != nil {
				return
			}
			victimBytes <- n
		}
	}()

	cfg := DefaultHoneypotConfig()
	cfg.MaxResponsesPerVictimPerSec = 5
	cfg.Reflect = func(v netip.Addr) *net.UDPAddr {
		if v == victimAddr {
			return victimUDP
		}
		return nil
	}
	hp, err := NewHoneypot("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()

	// Catchments: AS 100 -> link 0, AS 200 -> link 1.
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{100: 0, 200: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer border.Close()

	a1, err := NewAttacker(100, victimAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := NewAttacker(200, victimAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()

	if _, err := a1.Flood(border.Addr(), 20, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := a2.Flood(border.Addr(), 10, 8); err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool {
		v := hp.VolumeByLink()
		return v[0].Packets == 20 && v[1].Packets == 10
	})

	// The rate limiter caps reflection well below the 30 requests.
	waitFor(t, func() bool { return hp.Reflected() >= 1 })
	time.Sleep(50 * time.Millisecond)
	if r := hp.Reflected(); r > 5 {
		t.Fatalf("reflected %d responses in one window, limit is 5", r)
	}
	// Victim actually received amplified responses.
	n := <-victimBytes
	if n <= headerLen+8 {
		t.Fatalf("victim got %d bytes; expected amplification beyond request size", n)
	}
}

func TestBorderDropsUnroutedAS(t *testing.T) {
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{})
	if err != nil {
		t.Fatal(err)
	}
	defer border.Close()
	a, err := NewAttacker(12345, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Flood(border.Addr(), 5, 8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return border.Dropped() == 5 })
	if len(hp.VolumeByLink()) != 0 {
		t.Fatal("honeypot received traffic that should have been dropped")
	}
}

func TestBorderSetCatchments(t *testing.T) {
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{100: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer border.Close()
	a, err := NewAttacker(100, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if _, err := a.Flood(border.Addr(), 3, 8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hp.VolumeByLink()[0].Packets == 3 })

	// Reconfigure: AS 100 now enters on link 4.
	border.SetCatchments(map[uint32]uint8{100: 4})
	if _, err := a.Flood(border.Addr(), 2, 8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hp.VolumeByLink()[4].Packets == 2 })
	if hp.VolumeByLink()[0].Packets != 3 {
		t.Fatal("old link accounting changed")
	}
}

func TestHoneypotMalformedCounting(t *testing.T) {
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.WriteTo([]byte("garbage-not-a-packet"), hp.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hp.Malformed() == 1 })
}

func TestNewHoneypotRejectsBadConfig(t *testing.T) {
	if _, err := NewHoneypot("127.0.0.1:0", HoneypotConfig{AmpFactor: 0}); err == nil {
		t.Fatal("expected config error")
	}
}

func TestAttackerFloodValidation(t *testing.T) {
	a, err := NewAttacker(1, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	if _, err := a.Flood(dst, 1, 0); err == nil {
		t.Fatal("zero payload accepted")
	}
	if _, err := a.Flood(dst, 1, maxPayload+1); err == nil {
		t.Fatal("oversized payload accepted")
	}
}
