package mrt

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"

	"spooftrack/internal/topo"
)

// FuzzReadUpdate exercises the MRT/BGP parser against arbitrary input:
// it must never panic, anything it accepts must re-encode to a record
// that parses back to the same update, and no state may leak across
// records through the body buffer one decoder reuses — a second record
// read through the same decoder must leave the first one's Path, NextHop
// and Prefix as they were.
func FuzzReadUpdate(f *testing.F) {
	// Seed corpus: valid records and near-miss corruptions.
	u := &Update{
		PeerAS:    64500,
		LocalAS:   64501,
		Timestamp: 1,
		Path:      []topo.ASN{64500, 47065},
		NextHop:   netip.MustParseAddr("203.0.113.1"),
		Prefix:    netip.PrefixFrom(netip.MustParseAddr("198.51.100.0"), 24),
	}
	var buf bytes.Buffer
	if err := WriteUpdate(&buf, u); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	truncated := append([]byte(nil), valid[:len(valid)-3]...)
	f.Add(truncated)
	corrupted := append([]byte(nil), valid...)
	corrupted[20] ^= 0xff
	f.Add(corrupted)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	// The record every input is followed by: a different path, next hop
	// and prefix, written over the same body buffer.
	other := &Update{
		PeerAS:  64999,
		Path:    []topo.ASN{4200000000, 3356, 1299, 174, 64999},
		NextHop: netip.MustParseAddr("192.0.2.254"),
		Prefix:  netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), 8),
	}
	var tail bytes.Buffer
	if err := WriteUpdate(&tail, other); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d := decoder{r: bytes.NewReader(append(append([]byte(nil), data...), tail.Bytes()...))}
		got, err := d.next()
		if err != nil {
			return
		}
		path := slices.Clone(got.Path)
		nextHop, prefix := got.NextHop, got.Prefix
		d.next() // whatever follows, it lands in the same body buffer
		if !slices.Equal(got.Path, path) || got.NextHop != nextHop || got.Prefix != prefix {
			t.Fatalf("second read changed the first record: path %v next hop %v prefix %v, was %v %v %v",
				got.Path, got.NextHop, got.Prefix, path, nextHop, prefix)
		}

		// Round-trip whatever parsed.
		var out bytes.Buffer
		if err := WriteUpdate(&out, got); err != nil {
			// Some parsed values are unencodable (e.g., a record without a
			// NEXT_HOP, or a path too long for one segment); that is fine
			// as long as parsing flagged nothing.
			return
		}
		back, err := ReadUpdate(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded record unparseable: %v", err)
		}
		if back.PeerAS != got.PeerAS || back.LocalAS != got.LocalAS || back.Timestamp != got.Timestamp ||
			!slices.Equal(back.Path, got.Path) || back.NextHop != got.NextHop || back.Prefix != got.Prefix {
			t.Fatalf("re-encoded record parsed as %+v, want %+v", back, got)
		}
	})
}
