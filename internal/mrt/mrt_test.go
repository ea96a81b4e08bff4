package mrt

import (
	"bytes"
	"encoding/hex"
	"hash/fnv"
	"io"
	"net/netip"
	"testing"
	"testing/quick"

	"spooftrack/internal/topo"
)

func sampleUpdate() *Update {
	return &Update{
		PeerAS:    64500,
		LocalAS:   64501,
		Timestamp: 1234567,
		Path:      []topo.ASN{64500, 3356, 47065},
		NextHop:   netip.MustParseAddr("203.0.113.1"),
		Prefix:    netip.PrefixFrom(netip.MustParseAddr("198.51.100.0"), 24),
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	u := sampleUpdate()
	if err := WriteUpdate(&buf, u); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUpdate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PeerAS != u.PeerAS || got.Timestamp != u.Timestamp || got.Prefix != u.Prefix || got.NextHop != u.NextHop {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, u)
	}
	if len(got.Path) != len(u.Path) {
		t.Fatalf("path %v, want %v", got.Path, u.Path)
	}
	for i := range u.Path {
		if got.Path[i] != u.Path[i] {
			t.Fatalf("path %v, want %v", got.Path, u.Path)
		}
	}
}

func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(peer uint32, rawPath []uint32, bits uint8) bool {
		if len(rawPath) == 0 {
			rawPath = []uint32{1}
		}
		if len(rawPath) > 200 {
			rawPath = rawPath[:200]
		}
		path := make([]topo.ASN, len(rawPath))
		for i, v := range rawPath {
			path[i] = topo.ASN(v)
		}
		u := &Update{
			PeerAS:  topo.ASN(peer),
			Path:    path,
			NextHop: netip.MustParseAddr("203.0.113.1"),
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 51, 100, 0}), int(bits%25)),
		}
		var buf bytes.Buffer
		if err := WriteUpdate(&buf, u); err != nil {
			return false
		}
		got, err := ReadUpdate(&buf)
		if err != nil || got.PeerAS != u.PeerAS || len(got.Path) != len(path) {
			return false
		}
		for i := range path {
			if got.Path[i] != path[i] {
				return false
			}
		}
		return got.Prefix.Bits() == u.Prefix.Bits()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamOfUpdates(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		u := sampleUpdate()
		u.PeerAS = topo.ASN(100 + i)
		u.Path = []topo.ASN{u.PeerAS, 47065}
		if err := WriteUpdate(&buf, u); err != nil {
			t.Fatal(err)
		}
	}
	updates, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 5 {
		t.Fatalf("got %d updates, want 5", len(updates))
	}
	for i, u := range updates {
		if u.PeerAS != topo.ASN(100+i) {
			t.Fatalf("update %d peer %d", i, u.PeerAS)
		}
	}
}

func TestWriteUpdateValidation(t *testing.T) {
	var buf bytes.Buffer
	empty := sampleUpdate()
	empty.Path = nil
	if err := WriteUpdate(&buf, empty); err == nil {
		t.Error("empty path accepted")
	}
	long := sampleUpdate()
	long.Path = make([]topo.ASN, 256)
	if err := WriteUpdate(&buf, long); err == nil {
		t.Error("256-hop path accepted")
	}
	v6 := sampleUpdate()
	v6.NextHop = netip.MustParseAddr("2001:db8::1")
	if err := WriteUpdate(&buf, v6); err == nil {
		t.Error("IPv6 next hop accepted")
	}
	v6p := sampleUpdate()
	v6p.Prefix = netip.PrefixFrom(netip.MustParseAddr("2001:db8::"), 48)
	if err := WriteUpdate(&buf, v6p); err == nil {
		t.Error("IPv6 prefix accepted")
	}
}

func TestLongASPathUsesExtendedLength(t *testing.T) {
	// 64 hops * 4 bytes + 2 > 255 forces the extended-length attribute
	// encoding.
	u := sampleUpdate()
	u.Path = make([]topo.ASN, 80)
	for i := range u.Path {
		u.Path[i] = topo.ASN(i + 1)
	}
	var buf bytes.Buffer
	if err := WriteUpdate(&buf, u); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUpdate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Path) != 80 || got.Path[79] != 80 {
		t.Fatalf("extended-length path corrupted: %v", got.Path[:5])
	}
}

func TestReadUpdateRejectsGarbage(t *testing.T) {
	// Truncated header.
	if _, err := ReadUpdate(bytes.NewReader([]byte{1, 2, 3})); err == nil || err == io.EOF {
		t.Error("truncated header accepted")
	}
	// Clean EOF on empty stream.
	if _, err := ReadUpdate(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: got %v, want EOF", err)
	}
	// Corrupt a valid record's BGP marker.
	var buf bytes.Buffer
	if err := WriteUpdate(&buf, sampleUpdate()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[mrtHeaderLen+20] = 0x00 // first marker byte
	if _, err := ReadUpdate(bytes.NewReader(data)); err == nil {
		t.Error("bad marker accepted")
	}
	// Wrong MRT type.
	buf.Reset()
	if err := WriteUpdate(&buf, sampleUpdate()); err != nil {
		t.Fatal(err)
	}
	data = buf.Bytes()
	data[4], data[5] = 0, 13 // TABLE_DUMP_V2
	if _, err := ReadUpdate(bytes.NewReader(data)); err == nil {
		t.Error("unsupported MRT type accepted")
	}
}

func TestParseBGPUpdateErrors(t *testing.T) {
	// Build a valid record, then surgically corrupt the inner BGP
	// message in ways the parser must reject.
	var buf bytes.Buffer
	if err := WriteUpdate(&buf, sampleUpdate()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	bgpStart := mrtHeaderLen + 20

	corrupt := func(mutate func(msg []byte)) error {
		data := append([]byte(nil), valid...)
		mutate(data[bgpStart:])
		_, err := ReadUpdate(bytes.NewReader(data))
		return err
	}
	if err := corrupt(func(m []byte) { m[18] = 1 }); err == nil { // OPEN, not UPDATE
		t.Error("non-UPDATE accepted")
	}
	if err := corrupt(func(m []byte) { m[16], m[17] = 0, 5 }); err == nil { // bad BGP length
		t.Error("bad BGP length accepted")
	}
	if err := corrupt(func(m []byte) { m[19], m[20] = 0xff, 0xff }); err == nil { // withdrawn overrun
		t.Error("withdrawn overrun accepted")
	}
}

func TestReadUpdateImplausibleRecordLength(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteUpdate(&buf, sampleUpdate()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8], data[9], data[10], data[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadUpdate(bytes.NewReader(data)); err == nil {
		t.Fatal("implausible record length accepted")
	}
}

func TestReadAllPropagatesErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteUpdate(&buf, sampleUpdate()); err != nil {
		t.Fatal(err)
	}
	// Append garbage after the valid record.
	buf.Write([]byte{9, 9, 9})
	if _, err := ReadAll(&buf); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestWriteUpdateWireBytes pins the encoder's output to bytes captured
// from the implementation that assembled header, body and message in
// separate buffers: a short path, and an extended-length AS_PATH with a
// prefix that does not end on a byte boundary.
func TestWriteUpdateWireBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteUpdate(&buf, sampleUpdate()); err != nil {
		t.Fatal(err)
	}
	const short = "0012d687001000040000004b0000fbf40000fbf5000000010000000000000000" +
		"ffffffffffffffffffffffffffffffff0037020000001c4001010040020e0203" +
		"0000fbf400000d1c0000b7d9400304cb00710118c63364"
	if got := hex.EncodeToString(buf.Bytes()); got != short {
		t.Fatalf("short record\n got %s\nwant %s", got, short)
	}
	long := sampleUpdate()
	long.Path = make([]topo.ASN, 100)
	for i := range long.Path {
		long.Path[i] = topo.ASN(65000 + 7*i)
	}
	long.Prefix = netip.PrefixFrom(netip.MustParseAddr("10.128.0.0"), 9)
	if err := WriteUpdate(&buf, long); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if buf.Len() != 562 || h.Sum64() != 0x1419f29b9e0529 {
		t.Fatalf("stream of both records: %d bytes, fnv %#x; want 562, 0x1419f29b9e0529", buf.Len(), h.Sum64())
	}
}
