package flowspec

import (
	"net/netip"
	"testing"
)

// FuzzUnmarshal exercises the RFC 5575 parser against arbitrary input:
// never panic; accepted rules re-encode losslessly.
func FuzzUnmarshal(f *testing.F) {
	r := Rule{
		DstPrefix:       netip.MustParsePrefix("198.51.100.0/24"),
		SrcPrefix:       netip.MustParsePrefix("16.0.32.0/20"),
		Protos:          []uint8{17},
		DstPorts:        []uint16{11211},
		RateBytesPerSec: 0,
	}
	valid, err := r.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	mut := append([]byte(nil), valid...)
	mut[1] ^= 0xff
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(longRuleWire(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		re, err := got.Marshal()
		if err != nil {
			return // e.g., wildcard-only rule: parseable but not encodable
		}
		got2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-encoded rule unparseable: %v", err)
		}
		if got2.SrcPrefix != got.SrcPrefix || got2.DstPrefix != got.DstPrefix {
			t.Fatal("prefixes drift across round trips")
		}
	})
}
