// Package amp is the packet-level amplification substrate: an
// AmpPot-style honeypot (Krämer et al., RAID 2015) that attracts spoofed
// amplification requests and accounts their volume per ingress peering
// link — the origin's §III-C measurement device — plus the spoofing
// attack clients and the border router that stamps ingress links.
//
// Userland cannot forge IP source addresses without raw sockets, so the
// spoofed source travels in an overlay header on top of UDP: attackers
// send Request packets carrying a spoofed victim address and their true
// source AS; the border router (the origin's edge) resolves the true AS
// to the peering link its traffic arrives on under the current routing
// outcome, stamps the link, and forwards to the honeypot. The honeypot
// counts per-link volume and taps each request; unlike AmpPot it never
// answers. All packet formats use fixed-size big-endian encoding.
package amp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Magic identifies overlay packets.
const Magic uint32 = 0x53504f46 // "SPOF"

// PacketType distinguishes overlay messages.
type PacketType uint8

// TypeRequest is an amplification query (attacker -> border ->
// honeypot), the one type decode accepts. Nothing answers one: the
// honeypot never does, and probe's SimNet models a reflector's answer
// with Service.Respond, not with an overlay packet.
const TypeRequest PacketType = 1

// maxPayload bounds the variable part of a packet.
const maxPayload = 1400

// headerLen is the fixed overlay header size: magic(4) type(1) link(1)
// srcAS(4) spoofedSrc(4) payloadLen(2).
const headerLen = 16

// slotLen is the border's receive slot: the longest packet plus one
// byte, so a longer datagram is cut to slotLen bytes and still fails
// decode's length check as the malformed packet it is. The honeypot
// reads whole datagrams into one readLen buffer instead.
const slotLen = headerLen + maxPayload + 1

// readLen is the honeypot's read buffer: longer than any UDP datagram,
// and than any run UDP GRO coalesces, so no read is cut.
const readLen = 1 << 16

// batchSize bounds the datagrams one border read takes and one flush
// sends.
const batchSize = 32

// Packet is one overlay message.
type Packet struct {
	Type PacketType
	// IngressLink is the peering link stamp; 0xff before the border
	// router assigns it.
	IngressLink uint8
	// TrueSrcAS is the attacker's actual AS number (what a border
	// router implicitly knows from the wire the packet arrived on).
	TrueSrcAS uint32
	// SpoofedSrc is the forged source address — the victim of the
	// reflection.
	SpoofedSrc netip.Addr
	// Payload is the query or amplified answer.
	Payload []byte
}

// LinkUnset marks packets not yet stamped by the border router.
const LinkUnset uint8 = 0xff

// Marshal encodes the packet into a new buffer.
func (p *Packet) Marshal() ([]byte, error) {
	return p.appendTo(make([]byte, 0, headerLen+min(len(p.Payload), maxPayload)))
}

// appendTo appends the packet's encoding to buf.
func (p *Packet) appendTo(buf []byte) ([]byte, error) {
	if len(p.Payload) > maxPayload {
		return nil, fmt.Errorf("amp: payload %d exceeds %d bytes", len(p.Payload), maxPayload)
	}
	if !p.SpoofedSrc.Is4() {
		return nil, fmt.Errorf("amp: spoofed source %v is not IPv4", p.SpoofedSrc)
	}
	buf = binary.BigEndian.AppendUint32(buf, Magic)
	buf = append(buf, byte(p.Type), p.IngressLink)
	buf = binary.BigEndian.AppendUint32(buf, p.TrueSrcAS)
	src := p.SpoofedSrc.As4()
	buf = append(buf, src[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Payload)))
	return append(buf, p.Payload...), nil
}

// Unmarshal decodes a packet, validating magic, type, and length fields.
// The packet owns a copy of the payload.
func Unmarshal(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := p.decode(buf); err != nil {
		return nil, err
	}
	p.Payload = append([]byte(nil), p.Payload...)
	return p, nil
}

// decode is Unmarshal into p without allocating: p.Payload aliases buf,
// so p is only good until buf is reused.
func (p *Packet) decode(buf []byte) error {
	if len(buf) < headerLen {
		return fmt.Errorf("amp: packet too short (%d bytes)", len(buf))
	}
	if got := binary.BigEndian.Uint32(buf[0:]); got != Magic {
		return fmt.Errorf("amp: bad magic %#x", got)
	}
	t := PacketType(buf[4])
	if t != TypeRequest {
		return fmt.Errorf("amp: unknown packet type %d", t)
	}
	plen := int(binary.BigEndian.Uint16(buf[14:]))
	if plen > maxPayload {
		return fmt.Errorf("amp: declared payload %d exceeds %d", plen, maxPayload)
	}
	if len(buf) != headerLen+plen {
		return fmt.Errorf("amp: length mismatch: %d bytes for payload %d", len(buf), plen)
	}
	*p = Packet{
		Type:        t,
		IngressLink: buf[5],
		TrueSrcAS:   binary.BigEndian.Uint32(buf[6:]),
		SpoofedSrc:  netip.AddrFrom4([4]byte(buf[10:14])),
		Payload:     buf[headerLen:],
	}
	return nil
}
