package amp

import (
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
)

func TestDNSQueryRecognized(t *testing.T) {
	q, err := BuildDNSQuery(0x1234, "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if !(DNSService{}).Recognize(q) {
		t.Fatal("own ANY query not recognized")
	}
	// A response (QR set) must not be recognized.
	resp := (DNSService{}).Respond(q, 512)
	if (DNSService{}).Recognize(resp) {
		t.Fatal("DNS response recognized as query")
	}
	// Non-ANY query not recognized (flip QTYPE to A).
	a := append([]byte(nil), q...)
	a[len(a)-3] = 1 // QTYPE low byte... careful: set QTYPE=1
	a[len(a)-4] = 0
	if (DNSService{}).Recognize(a) {
		t.Fatal("A query recognized as ANY")
	}
}

func TestDNSAmplifies(t *testing.T) {
	q, err := BuildDNSQuery(7, "example.com")
	if err != nil {
		t.Fatal(err)
	}
	resp := (DNSService{}).Respond(q, 1200)
	if len(resp) < len(q)*10 {
		t.Fatalf("DNS amplification only %dx", len(resp)/len(q))
	}
	if len(resp) > 1200 {
		t.Fatal("response exceeds cap")
	}
	// Transaction ID preserved.
	if resp[0] != q[0] || resp[1] != q[1] {
		t.Fatal("transaction ID lost")
	}
}

func TestBuildDNSQueryValidation(t *testing.T) {
	if _, err := BuildDNSQuery(1, ""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := BuildDNSQuery(1, "a..b"); err == nil {
		t.Fatal("empty label accepted")
	}
}

func TestNTPMonlist(t *testing.T) {
	req := BuildMonlistRequest()
	if !(NTPService{}).Recognize(req) {
		t.Fatal("monlist request not recognized")
	}
	resp := (NTPService{}).Respond(req, 1400)
	if !((NTPService{}).Name() == "ntp") {
		t.Fatal("name wrong")
	}
	if len(resp) < len(req)*50 {
		t.Fatalf("NTP amplification only %dx (%d bytes)", len(resp)/len(req), len(resp))
	}
	// A response must not be recognized as a request.
	if (NTPService{}).Recognize(resp) {
		t.Fatal("mode-7 response recognized as request")
	}
	if (NTPService{}).Recognize([]byte{0x17, 0}) {
		t.Fatal("truncated packet recognized")
	}
}

func TestSSDPMSearch(t *testing.T) {
	req := BuildMSearch()
	if !(SSDPService{}).Recognize(req) {
		t.Fatal("M-SEARCH not recognized")
	}
	resp := (SSDPService{}).Respond(req, 1400)
	if len(resp) < len(req)*4 {
		t.Fatalf("SSDP amplification only %dx", len(resp)/len(req))
	}
	if (SSDPService{}).Recognize([]byte("GET / HTTP/1.1\r\n")) {
		t.Fatal("plain HTTP recognized as SSDP")
	}
}

func TestRecognizeServiceDispatch(t *testing.T) {
	services := DefaultServices()
	q, _ := BuildDNSQuery(1, "example.com")
	cases := []struct {
		payload []byte
		want    string
	}{
		{q, "dns"},
		{BuildMonlistRequest(), "ntp"},
		{BuildMSearch(), "ssdp"},
	}
	for _, c := range cases {
		svc, ok := RecognizeService(services, c.payload)
		if !ok || svc.Name() != c.want {
			t.Fatalf("payload dispatched to %v, want %s", svc, c.want)
		}
	}
	if _, ok := RecognizeService(services, []byte("garbage")); ok {
		t.Fatal("garbage recognized")
	}
}

func TestHoneypotProtocolEmulation(t *testing.T) {
	victimAddr := netip.MustParseAddr("192.0.2.50")
	victimConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer victimConn.Close()
	victimUDP := victimConn.LocalAddr().(*net.UDPAddr)
	gotBytes := make(chan int, 64)
	go func() {
		buf := make([]byte, 2048)
		for {
			n, _, err := victimConn.ReadFrom(buf)
			if err != nil {
				return
			}
			gotBytes <- n
		}
	}()

	cfg := DefaultHoneypotConfig()
	cfg.Services = DefaultServices()
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
	border, err := NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), map[uint32]uint8{100: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer border.Close()
	a, err := NewAttacker(100, victimAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// NTP monlist flood: recognized, accounted, amplified.
	var ntp atomic.Int64
	hp.SetTap(func(ev Event) {
		if ev.Service == "ntp" {
			ntp.Add(1)
		}
	})
	if _, err := a.FloodPayload(border.Addr(), 5, BuildMonlistRequest()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ntp.Load() == 5 })

	// Garbage payload: dropped as unrecognized, not accounted per link.
	if _, err := a.FloodPayload(border.Addr(), 3, []byte("not a protocol")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hp.Malformed() == 3 })
	if hp.VolumeByLink()[0].Packets != 5 {
		t.Fatal("unrecognized payloads were accounted")
	}

	// The victim received a genuinely amplified NTP response.
	n := <-gotBytes
	if n < 500 {
		t.Fatalf("victim got %d bytes; expected monlist-scale amplification", n)
	}
}
