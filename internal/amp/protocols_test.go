package amp

import "testing"

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
		want    Service
	}{
		{q, DNSService{}},
		{BuildMonlistRequest(), NTPService{}},
		{BuildMSearch(), SSDPService{}},
	}
	for _, c := range cases {
		svc, ok := RecognizeService(services, c.payload)
		if !ok || svc != c.want {
			t.Fatalf("payload dispatched to %T, want %T", svc, c.want)
		}
	}
	if _, ok := RecognizeService(services, []byte("garbage")); ok {
		t.Fatal("garbage recognized")
	}
}
