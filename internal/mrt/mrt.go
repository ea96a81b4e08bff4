// Package mrt implements the wire formats route collectors speak: a
// subset of the BGP-4 UPDATE message (RFC 4271, with four-octet AS
// numbers per RFC 6793) and of the MRT BGP4MP_MESSAGE_AS4 framing
// (RFC 6396) that RouteViews and RIPE RIS use to publish feeds.
//
// The paper's inference pipeline consumes AS-paths "observed on BGP
// update messages towards PEERING prefixes collected from public feeds"
// (§IV-b). This package lets the simulated collectors produce those
// feeds as actual MRT byte streams and the measurement pipeline parse
// them back, exercising the real encode/decode path.
//
// Scope: IPv4 unicast announcements with ORIGIN, AS_PATH (AS_SEQUENCE)
// and NEXT_HOP attributes. Withdrawals, communities, and multiprotocol
// attributes are out of scope for the feeds the simulation produces.
package mrt

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sync"

	"spooftrack/internal/topo"
)

// BGP message constants (RFC 4271).
const (
	bgpHeaderLen  = 19
	bgpMaxMsgLen  = 4096
	bgpTypeUpdate = 2

	attrOrigin  = 1
	attrASPath  = 2
	attrNextHop = 3

	asSequence = 2

	originIGP = 0
)

// MRT constants (RFC 6396).
const (
	mrtHeaderLen         = 12
	mrtTypeBGP4MP        = 16
	mrtSubtypeMessageAS4 = 4
	afiIPv4              = 1
	// bgp4mpHeaderLen is the BGP4MP_MESSAGE_AS4 header in front of the
	// BGP message: peer AS(4) local AS(4) ifindex(2) afi(2) peer IP(4)
	// local IP(4).
	bgp4mpHeaderLen = 20
)

// Update is one simplified BGP UPDATE: an announcement of Prefix with
// the given AS_PATH.
type Update struct {
	// PeerAS is the collector peer that sent the update.
	PeerAS topo.ASN
	// LocalAS is the collector's AS.
	LocalAS topo.ASN
	// Timestamp is the MRT capture time (seconds since epoch).
	Timestamp uint32
	// Path is the AS_PATH as a single AS_SEQUENCE.
	Path []topo.ASN
	// NextHop is the announced next hop.
	NextHop netip.Addr
	// Prefix is the announced NLRI.
	Prefix netip.Prefix
}

var bgpMarker = func() [16]byte {
	var m [16]byte
	for i := range m {
		m[i] = 0xff
	}
	return m
}()

// appendBGPUpdate appends the BGP UPDATE message (RFC 4271 §4.3) with
// four-octet ASNs in AS_PATH to dst.
func appendBGPUpdate(dst []byte, u *Update) ([]byte, error) {
	if len(u.Path) == 0 {
		return nil, fmt.Errorf("mrt: empty AS path")
	}
	if len(u.Path) > 255 {
		return nil, fmt.Errorf("mrt: AS path longer than 255 segments")
	}
	if !u.NextHop.Is4() {
		return nil, fmt.Errorf("mrt: next hop %v is not IPv4", u.NextHop)
	}
	if !u.Prefix.Addr().Is4() {
		return nil, fmt.Errorf("mrt: prefix %v is not IPv4", u.Prefix)
	}

	start := len(dst)
	dst = append(dst, bgpMarker[:]...)
	dst = append(dst, 0, 0) // message length, patched below
	dst = append(dst, bgpTypeUpdate)
	dst = append(dst, 0, 0) // withdrawn routes length
	dst = append(dst, 0, 0) // path attributes length, patched below
	attrStart := len(dst)

	// ORIGIN: flags 0x40 (well-known transitive), len 1.
	dst = append(dst, 0x40, attrOrigin, 1, originIGP)
	// AS_PATH: one AS_SEQUENCE segment of 4-byte ASNs.
	pathLen := 2 + 4*len(u.Path)
	if pathLen > 255 {
		// Extended length attribute.
		dst = append(dst, 0x50, attrASPath, byte(pathLen>>8), byte(pathLen))
	} else {
		dst = append(dst, 0x40, attrASPath, byte(pathLen))
	}
	dst = append(dst, asSequence, byte(len(u.Path)))
	for _, asn := range u.Path {
		dst = binary.BigEndian.AppendUint32(dst, uint32(asn))
	}
	// NEXT_HOP.
	nh := u.NextHop.As4()
	dst = append(dst, 0x40, attrNextHop, 4)
	dst = append(dst, nh[:]...)
	binary.BigEndian.PutUint16(dst[attrStart-2:], uint16(len(dst)-attrStart))

	// NLRI: one prefix.
	bits := u.Prefix.Bits()
	addr := u.Prefix.Addr().As4()
	dst = append(dst, byte(bits))
	dst = append(dst, addr[:(bits+7)/8]...)

	msgLen := len(dst) - start
	if msgLen > bgpMaxMsgLen {
		return nil, fmt.Errorf("mrt: UPDATE of %d bytes exceeds maximum", msgLen)
	}
	binary.BigEndian.PutUint16(dst[start+16:], uint16(msgLen))
	return dst, nil
}

// parseBGPUpdate decodes an UPDATE message produced by appendBGPUpdate
// (and, more generally, any IPv4-unicast announcement using 4-octet
// AS_PATH encoding) into u's Path, NextHop and Prefix. The path is a
// fresh slice: nothing in u aliases msg.
func parseBGPUpdate(msg []byte, u *Update) error {
	if len(msg) < bgpHeaderLen {
		return fmt.Errorf("mrt: BGP message too short")
	}
	for i := 0; i < 16; i++ {
		if msg[i] != 0xff {
			return fmt.Errorf("mrt: bad BGP marker")
		}
	}
	if int(binary.BigEndian.Uint16(msg[16:])) != len(msg) {
		return fmt.Errorf("mrt: BGP length mismatch")
	}
	if msg[18] != bgpTypeUpdate {
		return fmt.Errorf("mrt: not an UPDATE (type %d)", msg[18])
	}
	body := msg[bgpHeaderLen:]
	if len(body) < 4 {
		return fmt.Errorf("mrt: truncated UPDATE body")
	}
	withdrawn := int(binary.BigEndian.Uint16(body))
	if len(body) < 2+withdrawn+2 {
		return fmt.Errorf("mrt: truncated withdrawn routes")
	}
	attrLen := int(binary.BigEndian.Uint16(body[2+withdrawn:]))
	attrStart := 4 + withdrawn
	if len(body) < attrStart+attrLen {
		return fmt.Errorf("mrt: truncated path attributes")
	}
	attrs := body[attrStart : attrStart+attrLen]
	nlri := body[attrStart+attrLen:]

	var path []topo.ASN
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return fmt.Errorf("mrt: truncated attribute header")
		}
		flags, code := attrs[0], attrs[1]
		var alen, hdr int
		if flags&0x10 != 0 { // extended length
			if len(attrs) < 4 {
				return fmt.Errorf("mrt: truncated extended attribute")
			}
			alen = int(binary.BigEndian.Uint16(attrs[2:]))
			hdr = 4
		} else {
			alen = int(attrs[2])
			hdr = 3
		}
		if len(attrs) < hdr+alen {
			return fmt.Errorf("mrt: attribute overruns message")
		}
		val := attrs[hdr : hdr+alen]
		switch code {
		case attrASPath:
			p, err := parseASPath(val)
			if err != nil {
				return err
			}
			path = p
		case attrNextHop:
			if len(val) != 4 {
				return fmt.Errorf("mrt: NEXT_HOP of %d bytes, want 4", len(val))
			}
			u.NextHop = netip.AddrFrom4([4]byte(val))
		}
		attrs = attrs[hdr+alen:]
	}
	if path == nil {
		return fmt.Errorf("mrt: UPDATE has no AS_PATH")
	}

	if len(nlri) < 1 {
		return fmt.Errorf("mrt: UPDATE has no NLRI")
	}
	bits := int(nlri[0])
	nBytes := (bits + 7) / 8
	if bits > 32 || len(nlri) < 1+nBytes {
		return fmt.Errorf("mrt: bad NLRI")
	}
	var addr [4]byte
	copy(addr[:], nlri[1:1+nBytes])
	u.Path = path
	u.Prefix = netip.PrefixFrom(netip.AddrFrom4(addr), bits)
	return nil
}

func parseASPath(val []byte) ([]topo.ASN, error) {
	var path []topo.ASN
	for len(val) > 0 {
		if len(val) < 2 {
			return nil, fmt.Errorf("mrt: truncated AS_PATH segment")
		}
		segType, n := val[0], int(val[1])
		if segType != asSequence {
			return nil, fmt.Errorf("mrt: unsupported AS_PATH segment type %d", segType)
		}
		if len(val) < 2+4*n {
			return nil, fmt.Errorf("mrt: truncated AS_PATH")
		}
		if path == nil && n > 0 {
			path = make([]topo.ASN, 0, n)
		}
		for i := 0; i < n; i++ {
			path = append(path, topo.ASN(binary.BigEndian.Uint32(val[2+4*i:])))
		}
		val = val[2+4*n:]
	}
	return path, nil
}

// recordBufs recycles the buffer WriteUpdate assembles a record in.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteUpdate frames the update as one MRT BGP4MP_MESSAGE_AS4 record
// and writes it to w in a single Write.
func WriteUpdate(w io.Writer, u *Update) error {
	bp := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(bp)
	rec, err := appendRecord((*bp)[:0], u)
	if err != nil {
		return err
	}
	*bp = rec
	_, err = w.Write(rec)
	return err
}

// appendRecord appends the update's MRT record — common header, BGP4MP
// header, BGP message — to dst.
func appendRecord(dst []byte, u *Update) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, u.Timestamp)
	dst = binary.BigEndian.AppendUint16(dst, mrtTypeBGP4MP)
	dst = binary.BigEndian.AppendUint16(dst, mrtSubtypeMessageAS4)
	dst = append(dst, 0, 0, 0, 0) // record length, patched below
	bodyStart := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(u.PeerAS))
	dst = binary.BigEndian.AppendUint32(dst, uint32(u.LocalAS))
	dst = binary.BigEndian.AppendUint16(dst, 0) // interface index
	dst = binary.BigEndian.AppendUint16(dst, afiIPv4)
	dst = append(dst, 0, 0, 0, 0) // peer IP (unused in simulation)
	dst = append(dst, 0, 0, 0, 0) // local IP
	dst, err := appendBGPUpdate(dst, u)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(dst[bodyStart-4:], uint32(len(dst)-bodyStart))
	return dst, nil
}

// ReadUpdate reads one MRT record. It returns io.EOF at a clean end of
// stream.
func ReadUpdate(r io.Reader) (*Update, error) {
	d := decoder{r: r}
	return d.next()
}

// ReadAll parses a whole MRT stream.
func ReadAll(r io.Reader) ([]*Update, error) {
	d := decoder{r: r}
	var out []*Update
	for {
		u, err := d.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, u)
	}
}

// decoder reads the records of one stream through a header and a body
// buffer it keeps between records; an Update references neither.
type decoder struct {
	r    io.Reader
	hdr  [mrtHeaderLen]byte
	body []byte
}

func (d *decoder) next() (*Update, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("mrt: reading header: %w", err)
	}
	ts := binary.BigEndian.Uint32(d.hdr[0:])
	typ := binary.BigEndian.Uint16(d.hdr[4:])
	sub := binary.BigEndian.Uint16(d.hdr[6:])
	blen := int(binary.BigEndian.Uint32(d.hdr[8:]))
	if typ != mrtTypeBGP4MP || sub != mrtSubtypeMessageAS4 {
		return nil, fmt.Errorf("mrt: unsupported record type %d/%d", typ, sub)
	}
	if blen < bgp4mpHeaderLen || blen > 1<<20 {
		return nil, fmt.Errorf("mrt: implausible record length %d", blen)
	}
	if cap(d.body) < blen {
		d.body = make([]byte, blen)
	}
	body := d.body[:blen]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return nil, fmt.Errorf("mrt: reading body: %w", err)
	}
	if afi := binary.BigEndian.Uint16(body[10:]); afi != afiIPv4 {
		return nil, fmt.Errorf("mrt: unsupported AFI %d", afi)
	}
	u := &Update{
		Timestamp: ts,
		PeerAS:    topo.ASN(binary.BigEndian.Uint32(body[0:])),
		LocalAS:   topo.ASN(binary.BigEndian.Uint32(body[4:])),
	}
	if err := parseBGPUpdate(body[bgp4mpHeaderLen:], u); err != nil {
		return nil, err
	}
	return u, nil
}
