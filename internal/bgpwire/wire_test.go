package bgpwire

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"net/netip"
	"testing"

	"spooftrack/internal/topo"
)

// TestMessageWireBytes pins every encoder's output to captured bytes:
// OPEN with a two- and a four-octet AS, an UPDATE with a short path, one
// with an extended-length AS_PATH and a prefix that does not end on a
// byte boundary, a withdraw-only UPDATE, KEEPALIVE and NOTIFICATION.
// The long UPDATE is pinned by its length and FNV-1a hash.
func TestMessageWireBytes(t *testing.T) {
	long := make([]topo.ASN, 100)
	for i := range long {
		long[i] = topo.ASN(65000 + 7*i)
	}
	nextHop := netip.MustParseAddr("203.0.113.1")
	for _, tc := range []struct {
		name   string
		encode func() ([]byte, error)
		want   string // hex, or "len/fnv" for the long UPDATE
	}{
		{"open 2-octet AS", func() ([]byte, error) {
			return MarshalOpen(&Open{AS: 47065, HoldTime: 90, BGPID: 0x0a000001})
		}, "ffffffffffffffffffffffffffffffff00250104b7d9005a0a00000108020641040000b7d9"},
		{"open 4-octet AS", func() ([]byte, error) {
			return MarshalOpen(&Open{AS: 4200000001, HoldTime: 3, BGPID: 7})
		}, "ffffffffffffffffffffffffffffffff002501045ba00003000000070802064104fa56ea01"},
		{"update short path", func() ([]byte, error) {
			return MarshalUpdate(&Update{Path: []topo.ASN{64500, 3356, 47065}, NextHop: nextHop,
				Prefixes: []netip.Prefix{experimentPrefix()}})
		}, "ffffffffffffffffffffffffffffffff0037020000001c4001010040020e02030000fbf400000d1c0000b7d9400304cb00710118c63364"},
		{"update extended-length path", func() ([]byte, error) {
			return MarshalUpdate(&Update{Path: long, NextHop: nextHop,
				Prefixes: []netip.Prefix{netip.MustParsePrefix("10.128.0.0/9"), experimentPrefix()}})
		}, "447/0xf7c337f88e8d3584"},
		{"update withdraw only", func() ([]byte, error) {
			return MarshalUpdate(&Update{Withdrawn: []netip.Prefix{experimentPrefix(), netip.MustParsePrefix("10.0.0.0/8")}})
		}, "ffffffffffffffffffffffffffffffff001d02000618c63364080a0000"},
		{"keepalive", func() ([]byte, error) { return MarshalKeepalive(), nil },
			"ffffffffffffffffffffffffffffffff001304"},
		{"notification", func() ([]byte, error) {
			return MarshalNotification(&Notification{Code: NotifCease, Subcode: 2, Data: []byte("bye")})
		}, "ffffffffffffffffffffffffffffffff0018030602627965"},
	} {
		b, err := tc.encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := hex.EncodeToString(b)
		if len(b) > 64 {
			h := fnv.New64a()
			h.Write(b)
			got = fmt.Sprintf("%d/%#x", len(b), h.Sum64())
		}
		if got != tc.want {
			t.Errorf("%s\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
