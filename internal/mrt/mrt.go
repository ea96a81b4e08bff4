// Package mrt frames BGP-4 UPDATE messages in the MRT
// BGP4MP_MESSAGE_AS4 records (RFC 6396) that RouteViews and RIPE RIS
// use to publish feeds. The UPDATE itself — IPv4 unicast, with ORIGIN,
// a four-octet AS_SEQUENCE (RFC 6793) and NEXT_HOP — is bgpwire's: one
// codec encodes what the platform announces and decodes what the
// collectors record.
//
// The paper's inference pipeline consumes AS-paths "observed on BGP
// update messages towards PEERING prefixes collected from public feeds"
// (§IV-b). This package lets the simulated collectors produce those
// feeds as actual MRT byte streams and the measurement pipeline parse
// them back, exercising the real encode/decode path.
//
// Scope: one record announces one prefix with a non-empty AS_PATH.
// Withdrawals, communities, and multiprotocol attributes are out of
// scope for the feeds the simulation produces.
package mrt

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sync"

	"spooftrack/internal/bgpwire"
	"spooftrack/internal/topo"
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
	one := [1]netip.Prefix{u.Prefix}
	dst, err := bgpwire.AppendUpdate(dst, &bgpwire.Update{Path: u.Path, NextHop: u.NextHop, Prefixes: one[:]})
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(dst[bodyStart-4:], uint32(len(dst)-bodyStart))
	return dst, nil
}

// maxMRTBytes bounds what one stream may take, as topo.ReadCAIDA bounds
// a relationship file: a hostile stream of valid records cannot keep a
// Reader's caller collecting without limit. A campaign's feed is a few
// MB.
const maxMRTBytes = 64 << 20

// Reader decodes the records of MRT streams through a header array, a
// body buffer, a bgpwire.Update whose prefix list starts in one and the
// Update it returns, all kept between records and between streams, so a
// warm Reader allocates nothing per record. It counts the bytes the
// records of its stream take, refusing a record that would take the
// stream past maxMRTBytes. The zero Reader is ready for Reset.
type Reader struct {
	r    io.Reader
	hdr  [mrtHeaderLen]byte
	body []byte
	read int64
	msg  bgpwire.Update
	one  [1]netip.Prefix
	u    Update
}

// Reset makes the Reader read r from its start, keeping its buffers.
func (d *Reader) Reset(r io.Reader) { d.r, d.read = r, 0 }

// Next decodes the stream's next record. It returns io.EOF at a clean
// end of stream. The Update and its Path belong to the Reader: they stay
// valid until the next call to Next or Reset, and a caller that keeps
// either copies it.
func (d *Reader) Next() (*Update, error) {
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
	if d.read += mrtHeaderLen + int64(blen); d.read > maxMRTBytes {
		return nil, fmt.Errorf("mrt: stream exceeds %d bytes", maxMRTBytes)
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
	d.msg.Prefixes = d.one[:0]
	if err := bgpwire.ParseUpdate(body[bgp4mpHeaderLen:], &d.msg); err != nil {
		return nil, fmt.Errorf("mrt: decoding UPDATE: %w", err)
	}
	if len(d.msg.Path) == 0 || len(d.msg.Prefixes) != 1 {
		return nil, fmt.Errorf("mrt: UPDATE with a %d-hop AS path and %d prefixes, want a path and one prefix",
			len(d.msg.Path), len(d.msg.Prefixes))
	}
	d.u = Update{
		Timestamp: ts,
		PeerAS:    topo.ASN(binary.BigEndian.Uint32(body[0:])),
		LocalAS:   topo.ASN(binary.BigEndian.Uint32(body[4:])),
		Path:      d.msg.Path,
		NextHop:   d.msg.NextHop,
		Prefix:    d.msg.Prefixes[0],
	}
	return &d.u, nil
}
