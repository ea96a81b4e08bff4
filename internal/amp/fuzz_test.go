package amp

import (
	"net/netip"
	"testing"
)

// FuzzUnmarshal exercises the overlay packet parser: never panic;
// accepted packets re-encode identically.
func FuzzUnmarshal(f *testing.F) {
	p := &Packet{
		Type:        TypeRequest,
		IngressLink: 2,
		TrueSrcAS:   64500,
		SpoofedSrc:  netip.MustParseAddr("192.0.2.7"),
		Payload:     []byte("query"),
	}
	valid, err := p.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:headerLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		re, err := got.Marshal()
		if err != nil {
			t.Fatalf("parsed packet unencodable: %v", err)
		}
		if len(re) != len(data) {
			t.Fatalf("round trip changed size: %d -> %d", len(data), len(re))
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatal("round trip not byte-identical")
			}
		}
	})
}

// FuzzServices feeds arbitrary payloads to the protocol recognizers and
// responders: recognition must never panic, and recognized payloads
// must produce bounded responses.
func FuzzServices(f *testing.F) {
	q, _ := BuildDNSQuery(1, "example.com")
	f.Add(q)
	f.Add(BuildMonlistRequest())
	f.Add(BuildMSearch())
	f.Add([]byte{})
	f.Add([]byte("M-SEARCH"))

	services := DefaultServices()
	f.Fuzz(func(t *testing.T, payload []byte) {
		svc, ok := RecognizeService(services, payload)
		if !ok {
			return
		}
		resp := svc.Respond(payload, 1400)
		if len(resp) > 1400 {
			t.Fatalf("%T response of %d bytes exceeds cap", svc, len(resp))
		}
	})
}
