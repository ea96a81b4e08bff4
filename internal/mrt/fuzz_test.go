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
// records or streams through the buffers one Reader reuses — a Reader
// that has already decoded another record and been reset must make of
// the input exactly what a fresh one does.
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

	// The record a reused Reader decodes before each input: a different
	// path, next hop and prefix, written over the same buffers.
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
		got, err := ReadUpdate(bytes.NewReader(data))
		rd := NewReader(bytes.NewReader(tail.Bytes()))
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
		rd.Reset(bytes.NewReader(data))
		again, againErr := rd.Next()
		if (err == nil) != (againErr == nil) {
			t.Fatalf("reused Reader: error %v, a fresh one %v", againErr, err)
		}
		if err != nil {
			return
		}
		if again.PeerAS != got.PeerAS || again.LocalAS != got.LocalAS || again.Timestamp != got.Timestamp ||
			!slices.Equal(again.Path, got.Path) || again.NextHop != got.NextHop || again.Prefix != got.Prefix {
			t.Fatalf("reused Reader decoded %+v, a fresh one %+v", again, got)
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
