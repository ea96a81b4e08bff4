package amp

import (
	"net"
	"net/netip"
	"sync"
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
			Type:        TypeRequest,
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
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
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
}

// TestBorderOnDualStackSocket runs the border on a wildcard address,
// which the net package opens as a dual-stack IPv6 socket, and forwards
// to an IPv4 and to an IPv6 honeypot. The attacker reaches the border
// over IPv4 with 3 requests and then a flood of 32, which the border
// forwards as one GSO run for the honeypot to split.
func TestBorderOnDualStackSocket(t *testing.T) {
	for _, hpAddr := range []string{"127.0.0.1:0", "[::1]:0"} {
		t.Run(hpAddr, func(t *testing.T) {
			hp, err := NewHoneypot(hpAddr, DefaultHoneypotConfig())
			if err != nil {
				t.Skipf("no socket on %s: %v", hpAddr, err)
			}
			defer hp.Close()
			border, err := NewBorder(":0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{100: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer border.Close()
			a, err := NewAttacker(100, netip.MustParseAddr("192.0.2.1"))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			to := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: border.Addr().(*net.UDPAddr).Port}
			if _, err := a.Flood(to, 3, 8); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return hp.VolumeByLink()[2].Packets == 3 })
			if _, err := a.Flood(to, batchSize, 8); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return hp.VolumeByLink()[2].Packets == 3+batchSize })
		})
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

// TestBorderCopiesCatchments: the border routes by what each
// SetCatchments was handed, whatever the caller does to its map after
// the call returns — as an intake does, which refreshes one table in
// place for every deploy.
func TestBorderCopiesCatchments(t *testing.T) {
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
	a100, err := NewAttacker(100, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer a100.Close()
	a200, err := NewAttacker(200, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer a200.Close()

	// Three deploys of one map, changed after each: the last fills the
	// table the first one's swap retired.
	table := make(map[uint32]uint8)
	for _, link := range []uint8{4, 2, 3} {
		delete(table, 200)
		table[100] = link
		border.SetCatchments(table)
		table[100] = 1
		table[200] = 1
	}
	if _, err := a100.Flood(border.Addr(), 3, 8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hp.VolumeByLink()[3].Packets == 3 })
	if _, err := a200.Flood(border.Addr(), 2, 8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return border.Dropped() == 2 })

	clear(table)
	if _, err := a100.Flood(border.Addr(), 5, 8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hp.VolumeByLink()[3].Packets == 8 })
	if v := hp.VolumeByLink(); v[1].Packets != 0 || border.Dropped() != 2 {
		t.Fatalf("link 1 carried %d packets and the border dropped %d: it routed by the caller's changed map", v[1].Packets, border.Dropped())
	}
}

// TestConcurrentSetCatchments: replacements from several goroutines
// (one per intake of a sharded daemon) while packets flow through the
// border each install a whole table: every packet is routed on one of
// the links some table gave its AS, none is dropped.
func TestConcurrentSetCatchments(t *testing.T) {
	hp, err := NewHoneypot("127.0.0.1:0", DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{100: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer border.Close()
	a, err := NewAttacker(100, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var wg sync.WaitGroup
	for g := uint8(1); g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := map[uint32]uint8{}
			for i := 0; i < 200; i++ {
				table[100] = g
				border.SetCatchments(table)
				delete(table, 100)
			}
		}()
	}
	const floods, per = 20, 5
	for i := 0; i < floods; i++ {
		if _, err := a.Flood(border.Addr(), per, 8); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	waitFor(t, func() bool {
		n := int64(0)
		for l := uint8(1); l <= 4; l++ {
			n += hp.VolumeByLink()[l].Packets
		}
		return n == floods*per
	})
	if d := border.Dropped(); d != 0 {
		t.Fatalf("the border dropped %d packets of an AS every table routes", d)
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
