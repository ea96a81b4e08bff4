// Package bgpwire implements the BGP-4 session protocol (RFC 4271) at
// the subset a PEERING-style announcement platform and its route
// collectors need: OPEN with the four-octet-AS capability (RFC 6793),
// UPDATE carrying IPv4 unicast announcements with ORIGIN / AS_PATH /
// NEXT_HOP attributes, KEEPALIVE, NOTIFICATION, and a session state
// machine over TCP (session.go). examples/live-bgp serves a simulated
// configuration's routes over real BGP sessions with it. Its UPDATE
// codec, AppendUpdate and ParseUpdate, is the only one: the mrt package
// frames the same messages for collector feeds.
package bgpwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"

	"spooftrack/internal/topo"
)

// Message type codes (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Protocol constants.
const (
	headerLen  = 19
	maxMsgLen  = 4096
	bgpVersion = 4
	// asTrans is the 2-byte AS placeholder when the real AS needs four
	// octets (RFC 6793).
	asTrans = 23456
)

// Open is the session-establishment message.
type Open struct {
	AS       topo.ASN
	HoldTime uint16
	BGPID    uint32
}

// Update is an IPv4 unicast route announcement. Withdrawals carry an
// empty Path and a non-empty Withdrawn list.
type Update struct {
	Path      []topo.ASN
	NextHop   netip.Addr
	Prefixes  []netip.Prefix
	Withdrawn []netip.Prefix
}

// Notification reports a fatal session error (RFC 4271 §4.5).
type Notification struct {
	Code, Subcode uint8
	Data          []byte
}

// Error renders the notification as an error value.
func (n *Notification) Error() string {
	return fmt.Sprintf("bgp NOTIFICATION code %d subcode %d", n.Code, n.Subcode)
}

// Common notification codes.
const (
	NotifCease        = 6
	NotifOpenError    = 2
	NotifHoldTimerExp = 4
	NotifMsgHeaderErr = 1
	NotifUpdateMsgErr = 3
	NotifFSMError     = 5

	// subcodeBadHoldTime is the OPEN Message Error subcode for an
	// Unacceptable Hold Time (RFC 4271 §6.2).
	subcodeBadHoldTime = 6
)

// Keepalive has no body.
type Keepalive struct{}

// marker is the all-ones field every message starts with.
const marker = "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"

// appendHeader appends a message header whose length finish patches.
func appendHeader(dst []byte, msgType byte) []byte {
	dst = append(dst, marker...)
	return append(dst, 0, 0, msgType)
}

// finish patches the length of the message that starts at dst[start:],
// refusing one past the maximum.
func finish(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start
	if n > maxMsgLen {
		return nil, fmt.Errorf("bgpwire: message of %d bytes exceeds maximum", n)
	}
	binary.BigEndian.PutUint16(dst[start+16:], uint16(n))
	return dst, nil
}

// MarshalOpen encodes an OPEN with the four-octet-AS capability.
func MarshalOpen(o *Open) ([]byte, error) {
	msg := appendHeader(make([]byte, 0, headerLen+18), MsgOpen)
	msg = append(msg, bgpVersion)
	as2 := uint16(o.AS)
	if o.AS > 0xffff {
		as2 = asTrans
	}
	msg = binary.BigEndian.AppendUint16(msg, as2)
	msg = binary.BigEndian.AppendUint16(msg, o.HoldTime)
	msg = binary.BigEndian.AppendUint32(msg, o.BGPID)
	// Optional parameters (8 bytes): one capabilities parameter (type 2,
	// length 6) holding the four-octet-AS capability (code 65, length 4).
	msg = append(msg, 8, 2, 6, 65, 4)
	msg = binary.BigEndian.AppendUint32(msg, uint32(o.AS))
	return finish(msg, 0)
}

// parseOpen decodes an OPEN body.
func parseOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, fmt.Errorf("bgpwire: OPEN too short")
	}
	if body[0] != bgpVersion {
		return nil, fmt.Errorf("bgpwire: unsupported BGP version %d", body[0])
	}
	o := &Open{
		AS:       topo.ASN(binary.BigEndian.Uint16(body[1:])),
		HoldTime: binary.BigEndian.Uint16(body[3:]),
		BGPID:    binary.BigEndian.Uint32(body[5:]),
	}
	optLen := int(body[9])
	if len(body) < 10+optLen {
		return nil, fmt.Errorf("bgpwire: truncated OPEN parameters")
	}
	params := body[10 : 10+optLen]
	for len(params) > 0 {
		if len(params) < 2 {
			return nil, fmt.Errorf("bgpwire: truncated optional parameter")
		}
		pType, pLen := params[0], int(params[1])
		if len(params) < 2+pLen {
			return nil, fmt.Errorf("bgpwire: optional parameter overrun")
		}
		if pType == 2 { // capabilities
			caps := params[2 : 2+pLen]
			for len(caps) > 0 {
				if len(caps) < 2 || len(caps) < 2+int(caps[1]) {
					return nil, fmt.Errorf("bgpwire: truncated capability")
				}
				if caps[0] == 65 && caps[1] == 4 {
					o.AS = topo.ASN(binary.BigEndian.Uint32(caps[2:]))
				}
				caps = caps[2+int(caps[1]):]
			}
		}
		params = params[2+pLen:]
	}
	return o, nil
}

// Path attribute type codes and the one AS_PATH segment type this
// subset speaks (RFC 4271 §4.3).
const (
	attrOrigin  = 1
	attrASPath  = 2
	attrNextHop = 3
	asSequence  = 2
)

// MarshalUpdate encodes an UPDATE with 4-byte AS_PATH encoding.
func MarshalUpdate(u *Update) ([]byte, error) { return AppendUpdate(nil, u) }

// AppendUpdate appends u as an UPDATE message (RFC 4271 §4.3) with
// four-octet ASNs in AS_PATH (RFC 6793) to dst. An UPDATE that announces
// carries ORIGIN IGP, one AS_SEQUENCE and NEXT_HOP; a withdraw-only one
// carries no attributes.
func AppendUpdate(dst []byte, u *Update) ([]byte, error) {
	start := len(dst)
	dst = appendHeader(dst, MsgUpdate)
	dst = append(dst, 0, 0) // withdrawn routes length, patched below
	dst, err := appendPrefixes(dst, u.Withdrawn)
	if err != nil {
		return nil, err
	}
	attrsAt := len(dst)
	binary.BigEndian.PutUint16(dst[start+headerLen:], uint16(attrsAt-start-headerLen-2))
	dst = append(dst, 0, 0) // path attributes length, patched below
	if len(u.Prefixes) > 0 {
		if len(u.Path) == 0 || len(u.Path) > 255 {
			return nil, fmt.Errorf("bgpwire: AS path length %d invalid", len(u.Path))
		}
		if !u.NextHop.Is4() {
			return nil, errors.New("bgpwire: next hop is not IPv4")
		}
		dst = append(dst, 0x40, attrOrigin, 1, 0) // well-known transitive, IGP
		if pathLen := 2 + 4*len(u.Path); pathLen > 255 {
			dst = append(dst, 0x50, attrASPath, byte(pathLen>>8), byte(pathLen)) // extended length
		} else {
			dst = append(dst, 0x40, attrASPath, byte(pathLen))
		}
		dst = append(dst, asSequence, byte(len(u.Path)))
		for _, asn := range u.Path {
			dst = binary.BigEndian.AppendUint32(dst, uint32(asn))
		}
		nh := u.NextHop.As4()
		dst = append(dst, 0x40, attrNextHop, 4, nh[0], nh[1], nh[2], nh[3])
	}
	binary.BigEndian.PutUint16(dst[attrsAt:], uint16(len(dst)-attrsAt-2))
	if dst, err = appendPrefixes(dst, u.Prefixes); err != nil {
		return nil, err
	}
	return finish(dst, start)
}

// appendPrefixes appends each prefix as its length in bits and the
// octets that length covers.
func appendPrefixes(dst []byte, ps []netip.Prefix) ([]byte, error) {
	for _, p := range ps {
		if !p.Addr().Is4() {
			// Formatting p here would move every caller's prefixes to the heap.
			return nil, errors.New("bgpwire: prefix is not IPv4")
		}
		addr := p.Addr().As4()
		dst = append(dst, byte(p.Bits()))
		dst = append(dst, addr[:(p.Bits()+7)/8]...)
	}
	return dst, nil
}

// parsePrefixes appends the prefixes encoded in data to dst.
func parsePrefixes(dst []netip.Prefix, data []byte) ([]netip.Prefix, error) {
	for len(data) > 0 {
		bits := int(data[0])
		n := 1 + (bits+7)/8
		if bits > 32 || len(data) < n {
			return nil, errors.New("bgpwire: bad prefix encoding")
		}
		var a [4]byte
		copy(a[:], data[1:n])
		dst = append(dst, netip.PrefixFrom(netip.AddrFrom4(a), bits))
		data = data[n:]
	}
	return dst, nil
}

// ParseUpdate decodes the UPDATE message msg, header included, into u:
// the AS_SEQUENCE segments of its AS_PATH as one path, its NEXT_HOP, its
// NLRI and its withdrawn routes; other attributes are skipped. u.Path,
// u.Prefixes and u.Withdrawn reuse their capacity, so nothing in u
// aliases msg, and a caller decoding many messages into one Update
// allocates only while those slices grow; a slice kept past the next
// call into the same u must be copied first.
func ParseUpdate(msg []byte, u *Update) error {
	if len(msg) < headerLen || string(msg[:16]) != marker {
		return errors.New("bgpwire: bad marker")
	}
	if int(binary.BigEndian.Uint16(msg[16:])) != len(msg) {
		return errors.New("bgpwire: length field does not match the message")
	}
	if msg[18] != MsgUpdate {
		return fmt.Errorf("bgpwire: not an UPDATE (type %d)", msg[18])
	}
	*u = Update{Path: u.Path[:0], Prefixes: u.Prefixes[:0], Withdrawn: u.Withdrawn[:0]}
	body := msg[headerLen:]
	if len(body) < 4 {
		return errors.New("bgpwire: UPDATE too short")
	}
	wLen := int(binary.BigEndian.Uint16(body))
	if len(body) < 2+wLen+2 {
		return errors.New("bgpwire: truncated withdrawn routes")
	}
	var err error
	if u.Withdrawn, err = parsePrefixes(u.Withdrawn, body[2:2+wLen]); err != nil {
		return err
	}
	aLen := int(binary.BigEndian.Uint16(body[2+wLen:]))
	attrStart := 4 + wLen
	if len(body) < attrStart+aLen {
		return errors.New("bgpwire: truncated attributes")
	}
	for attrs := body[attrStart : attrStart+aLen]; len(attrs) > 0; {
		if len(attrs) < 3 {
			return errors.New("bgpwire: truncated attribute")
		}
		flags, code := attrs[0], attrs[1]
		vLen, hdr := int(attrs[2]), 3
		if flags&0x10 != 0 { // extended length
			if len(attrs) < 4 {
				return errors.New("bgpwire: truncated extended attribute")
			}
			vLen, hdr = int(binary.BigEndian.Uint16(attrs[2:])), 4
		}
		if len(attrs) < hdr+vLen {
			return errors.New("bgpwire: attribute overrun")
		}
		val := attrs[hdr : hdr+vLen]
		switch code {
		case attrASPath:
			if u.Path, err = appendPath(u.Path, val); err != nil {
				return err
			}
		case attrNextHop:
			if vLen != 4 {
				return errors.New("bgpwire: bad NEXT_HOP length")
			}
			u.NextHop = netip.AddrFrom4([4]byte(val))
		}
		attrs = attrs[hdr+vLen:]
	}
	u.Prefixes, err = parsePrefixes(u.Prefixes, body[attrStart+aLen:])
	return err
}

// appendPath appends the ASNs of the AS_SEQUENCE segments in an AS_PATH
// value to path, growing it at most once. On error path comes back
// unchanged.
func appendPath(path []topo.ASN, val []byte) ([]topo.ASN, error) {
	n := 0
	for seg := val; len(seg) > 0; seg = seg[2+4*int(seg[1]):] {
		if len(seg) < 2 || seg[0] != asSequence {
			return path, errors.New("bgpwire: unsupported AS_PATH segment")
		}
		if len(seg) < 2+4*int(seg[1]) {
			return path, errors.New("bgpwire: truncated AS_PATH")
		}
		n += int(seg[1])
	}
	path = slices.Grow(path, n)
	for seg := val; len(seg) > 0; seg = seg[2+4*int(seg[1]):] {
		for i := range int(seg[1]) {
			path = append(path, topo.ASN(binary.BigEndian.Uint32(seg[2+4*i:])))
		}
	}
	return path, nil
}

// MarshalKeepalive encodes a KEEPALIVE.
func MarshalKeepalive() []byte {
	msg, _ := finish(appendHeader(make([]byte, 0, headerLen), MsgKeepalive), 0)
	return msg
}

// MarshalNotification encodes a NOTIFICATION.
func MarshalNotification(n *Notification) ([]byte, error) {
	msg := appendHeader(make([]byte, 0, headerLen+2+len(n.Data)), MsgNotification)
	msg = append(msg, n.Code, n.Subcode)
	return finish(append(msg, n.Data...), 0)
}

// ReadMessage reads one message of at most 4096 bytes from the stream
// and decodes it into *Open, *Update, *Notification, or Keepalive.
func ReadMessage(r io.Reader) (any, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if string(hdr[:16]) != marker {
		return nil, errors.New("bgpwire: bad marker")
	}
	total := int(binary.BigEndian.Uint16(hdr[16:]))
	if total < headerLen || total > maxMsgLen {
		return nil, fmt.Errorf("bgpwire: bad message length %d", total)
	}
	msg := make([]byte, total)
	copy(msg, hdr[:])
	if _, err := io.ReadFull(r, msg[headerLen:]); err != nil {
		return nil, err
	}
	body := msg[headerLen:]
	switch hdr[18] {
	case MsgOpen:
		return parseOpen(body)
	case MsgUpdate:
		u := new(Update)
		if err := ParseUpdate(msg, u); err != nil {
			return nil, err
		}
		return u, nil
	case MsgNotification:
		if len(body) < 2 {
			return nil, errors.New("bgpwire: NOTIFICATION too short")
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, errors.New("bgpwire: KEEPALIVE with body")
		}
		return Keepalive{}, nil
	default:
		return nil, fmt.Errorf("bgpwire: unknown message type %d", hdr[18])
	}
}
