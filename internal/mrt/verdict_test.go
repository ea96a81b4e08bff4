package mrt

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"net/netip"
	"testing"

	"spooftrack/internal/bgpwire"
	"spooftrack/internal/topo"
)

// mutatedUpdates returns n BGP UPDATE messages made from four valid
// ones — a short path, an extended-length path with a /9, one that also
// withdraws a route, one announcing two prefixes — by overwriting one to
// four body bytes; one in four is also truncated, its header length
// patched to match.
func mutatedUpdates(t testing.TB, n int) [][]byte {
	nextHop := netip.MustParseAddr("203.0.113.1")
	long := make([]topo.ASN, 80)
	for i := range long {
		long[i] = topo.ASN(65000 + 7*i)
	}
	p24 := netip.MustParsePrefix("198.51.100.0/24")
	var bases [][]byte
	for _, u := range []*bgpwire.Update{
		{Path: []topo.ASN{64500, 3356, 47065}, NextHop: nextHop, Prefixes: []netip.Prefix{p24}},
		{Path: long, NextHop: nextHop, Prefixes: []netip.Prefix{netip.MustParsePrefix("10.128.0.0/9")}},
		{Path: []topo.ASN{47065}, NextHop: nextHop, Prefixes: []netip.Prefix{p24},
			Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}},
		{Path: []topo.ASN{3356, 47065}, NextHop: nextHop,
			Prefixes: []netip.Prefix{p24, netip.MustParsePrefix("192.0.2.128/25")}},
	} {
		b, err := bgpwire.MarshalUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b)
	}
	const headerLen = 19
	rng := rand.New(rand.NewPCG(43, 1))
	out := make([][]byte, n)
	for i := range out {
		msg := bytes.Clone(bases[rng.IntN(len(bases))])
		for range 1 + rng.IntN(4) {
			msg[headerLen+rng.IntN(len(msg)-headerLen)] = byte(rng.Uint32())
		}
		if rng.IntN(4) == 0 {
			msg = msg[:headerLen+rng.IntN(len(msg)-headerLen)]
			binary.BigEndian.PutUint16(msg[16:], uint16(len(msg)))
		}
		out[i] = msg
	}
	return out
}

// mrtRecord frames a BGP message as one BGP4MP_MESSAGE_AS4 record.
func mrtRecord(msg []byte) []byte {
	rec := make([]byte, mrtHeaderLen+bgp4mpHeaderLen, mrtHeaderLen+bgp4mpHeaderLen+len(msg))
	binary.BigEndian.PutUint16(rec[4:], mrtTypeBGP4MP)
	binary.BigEndian.PutUint16(rec[6:], mrtSubtypeMessageAS4)
	binary.BigEndian.PutUint32(rec[8:], uint32(bgp4mpHeaderLen+len(msg)))
	binary.BigEndian.PutUint32(rec[mrtHeaderLen:], 64500)
	binary.BigEndian.PutUint16(rec[mrtHeaderLen+10:], afiIPv4)
	return append(rec, msg...)
}

// inNamedClass reports whether an UPDATE falls in one of the three
// classes mrt's reader came to reject when it began decoding through
// bgpwire: malformed withdrawn routes, an NLRI with more than one
// prefix, or malformed NLRI bytes after the first prefix. It checks the
// structure only; the rest of the message may be malformed too.
func inNamedClass(msg []byte) bool {
	body := msg[19:]
	if len(body) < 4 {
		return false
	}
	w := int(binary.BigEndian.Uint16(body))
	if len(body) < 4+w {
		return false
	}
	a := int(binary.BigEndian.Uint16(body[2+w:]))
	if len(body) < 4+w+a {
		return false
	}
	if _, ok := countPrefixes(body[2 : 2+w]); !ok {
		return true
	}
	n, ok := countPrefixes(body[4+w+a:])
	return n >= 2 || n == 1 && !ok
}

// countPrefixes counts the well-formed prefixes at the front of an
// encoded prefix list, and reports whether the whole list is well formed.
func countPrefixes(b []byte) (n int, ok bool) {
	for len(b) > 0 {
		bits := int(b[0])
		k := 1 + (bits+7)/8
		if bits > 32 || len(b) < k {
			return n, false
		}
		b = b[k:]
		n++
	}
	return n, true
}

func hashPath(h hash.Hash64, path []topo.ASN) {
	h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(path))))
	for _, asn := range path {
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(asn)))
	}
}

func hashPrefixes(h hash.Hash64, ps ...netip.Prefix) {
	h.Write([]byte{byte(len(ps))})
	for _, p := range ps {
		h.Write(p.Addr().AsSlice())
		h.Write([]byte{byte(p.Bits())})
	}
}

// TestDecoderVerdictDigest pins what each decoder makes of 100 000
// mutated UPDATEs: accept or reject, and the path, next hop and
// prefixes of what it accepts. bgpwire's digest covers every input.
// mrt's covers the inputs outside the three named classes; the ones
// inside count towards a tally of their own.
func TestDecoderVerdictDigest(t *testing.T) {
	const n = 100_000
	wire, feed := fnv.New64a(), fnv.New64a()
	var wireOK, feedOK, named int
	for _, msg := range mutatedUpdates(t, n) {
		m, err := bgpwire.ReadMessage(bytes.NewReader(msg))
		if u, ok := m.(*bgpwire.Update); err == nil && ok {
			wireOK++
			wire.Write([]byte{1})
			hashPath(wire, u.Path)
			wire.Write(u.NextHop.AsSlice())
			hashPrefixes(wire, u.Prefixes...)
			hashPrefixes(wire, u.Withdrawn...)
		} else {
			wire.Write([]byte{0})
		}

		if inNamedClass(msg) {
			named++
			continue
		}
		if u, err := ReadUpdate(bytes.NewReader(mrtRecord(msg))); err == nil {
			feedOK++
			feed.Write([]byte{1})
			hashPath(feed, u.Path)
			feed.Write(u.NextHop.AsSlice())
			hashPrefixes(feed, u.Prefix)
		} else {
			feed.Write([]byte{0})
		}
	}
	t.Logf("bgpwire accepts %d, mrt %d of %d outside the named classes", wireOK, feedOK, n-named)
	const wantWire, wantFeed, wantNamed = uint64(0xfa0229e2f32b8165), uint64(0x5799e222d932005c), 15482
	if wire.Sum64() != wantWire || feed.Sum64() != wantFeed || named != wantNamed {
		t.Fatalf("digests bgpwire %#x mrt %#x, %d inputs in the named classes; want %#x %#x %d",
			wire.Sum64(), feed.Sum64(), named, wantWire, wantFeed, wantNamed)
	}
}

// TestReadUpdateRejectsNamedClasses: every input of the corpus in the
// three named classes is refused.
func TestReadUpdateRejectsNamedClasses(t *testing.T) {
	for _, msg := range mutatedUpdates(t, 100_000) {
		if !inNamedClass(msg) {
			continue
		}
		if u, err := ReadUpdate(bytes.NewReader(mrtRecord(msg))); err == nil {
			t.Fatalf("% x accepted as %+v", msg, u)
		}
	}
}
