// Package flowspec implements the subset of BGP Flow Specification
// (RFC 5575) needed to act on the paper's localization output: §I
// proposes driving "automatic DoS mitigation systems that use ... BGP
// flowspec to configure traffic filters". Once clusters sending spoofed
// traffic are identified, the origin can disseminate flowspec rules that
// drop (or rate-limit) matching traffic at its border.
//
// Scope: IPv4 rules with destination-prefix (type 1), source-prefix
// (type 2), IP-protocol (type 3), destination-port (type 5) and
// source-port (type 6) components, all with equality operators, plus the
// traffic-rate action extended community (0x8006; rate 0 = drop). The
// wire format follows RFC 5575 §4 (NLRI) and §7 (actions).
package flowspec

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"sort"
)

// Component type codes (RFC 5575 §4).
const (
	compDstPrefix = 1
	compSrcPrefix = 2
	compProto     = 3
	compDstPort   = 5
	compSrcPort   = 6
)

// Rule is one flow specification with its action. Zero-valued fields
// match anything.
type Rule struct {
	// DstPrefix matches the destination address (the protected prefix).
	DstPrefix netip.Prefix
	// SrcPrefix matches the (spoofed or attacking) source address.
	SrcPrefix netip.Prefix
	// Protos lists acceptable IP protocol numbers (empty = any).
	Protos []uint8
	// DstPorts and SrcPorts list acceptable ports (empty = any).
	DstPorts []uint16
	SrcPorts []uint16
	// RateBytesPerSec is the traffic-rate action; 0 drops all matching
	// traffic.
	RateBytesPerSec float32
}

// Packet is the 5-tuple a rule is matched against.
type Packet struct {
	Src, Dst netip.Addr
	Proto    uint8
	SrcPort  uint16
	DstPort  uint16
}

// Matches reports whether the packet satisfies every component of the
// rule.
func (r *Rule) Matches(p Packet) bool {
	if r.DstPrefix.IsValid() && !r.DstPrefix.Contains(p.Dst) {
		return false
	}
	if r.SrcPrefix.IsValid() && !r.SrcPrefix.Contains(p.Src) {
		return false
	}
	if len(r.Protos) > 0 && !containsU8(r.Protos, p.Proto) {
		return false
	}
	if len(r.DstPorts) > 0 && !containsU16(r.DstPorts, p.DstPort) {
		return false
	}
	if len(r.SrcPorts) > 0 && !containsU16(r.SrcPorts, p.SrcPort) {
		return false
	}
	return true
}

func containsU8(xs []uint8, v uint8) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func containsU16(xs []uint16, v uint16) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Marshal encodes the rule as RFC 5575 NLRI followed by the 8-byte
// traffic-rate extended community.
func (r *Rule) Marshal() ([]byte, error) {
	var nlri []byte
	appendPrefix := func(typeCode byte, p netip.Prefix) error {
		if !p.Addr().Is4() {
			return fmt.Errorf("flowspec: prefix %v is not IPv4", p)
		}
		nlri = append(nlri, typeCode, byte(p.Bits()))
		addr := p.Addr().As4()
		nlri = append(nlri, addr[:(p.Bits()+7)/8]...)
		return nil
	}
	if r.DstPrefix.IsValid() {
		if err := appendPrefix(compDstPrefix, r.DstPrefix); err != nil {
			return nil, err
		}
	}
	if r.SrcPrefix.IsValid() {
		if err := appendPrefix(compSrcPrefix, r.SrcPrefix); err != nil {
			return nil, err
		}
	}
	appendU8List := func(typeCode byte, vals []uint8) {
		if len(vals) == 0 {
			return
		}
		nlri = append(nlri, typeCode)
		for i, v := range vals {
			op := byte(0x01) // equality, 1-byte value
			if i == len(vals)-1 {
				op |= 0x80 // end of list
			}
			nlri = append(nlri, op, v)
		}
	}
	appendU16List := func(typeCode byte, vals []uint16) {
		if len(vals) == 0 {
			return
		}
		nlri = append(nlri, typeCode)
		for i, v := range vals {
			op := byte(0x11) // equality, 2-byte value (len bits = 01)
			if i == len(vals)-1 {
				op |= 0x80
			}
			nlri = binary.BigEndian.AppendUint16(append(nlri, op), v)
		}
	}
	appendU8List(compProto, r.Protos)
	appendU16List(compDstPort, r.DstPorts)
	appendU16List(compSrcPort, r.SrcPorts)
	if len(nlri) == 0 {
		return nil, fmt.Errorf("flowspec: rule matches everything; refusing to encode")
	}
	// RFC 5575 §4: a one-octet length covers only NLRIs below 0xf0;
	// longer ones take the two-octet 0xfnnn form.
	if len(nlri) >= 0xf0 {
		return nil, fmt.Errorf("flowspec: NLRI of %d bytes needs extended length (unsupported)", len(nlri))
	}
	out := make([]byte, 0, 1+len(nlri)+8)
	out = append(out, byte(len(nlri)))
	out = append(out, nlri...)
	// Traffic-rate extended community: type 0x80, subtype 0x06, 2-byte
	// AS (0), 4-byte IEEE float rate.
	out = append(out, 0x80, 0x06, 0, 0)
	out = binary.BigEndian.AppendUint32(out, math.Float32bits(r.RateBytesPerSec))
	return out, nil
}

// Unmarshal decodes one rule (NLRI + traffic-rate community) produced by
// Marshal.
func Unmarshal(data []byte) (*Rule, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("flowspec: empty rule")
	}
	if data[0] >= 0xf0 {
		return nil, fmt.Errorf("flowspec: extended NLRI length 0x%02x (unsupported)", data[0])
	}
	nlriLen := int(data[0])
	if len(data) < 1+nlriLen+8 {
		return nil, fmt.Errorf("flowspec: truncated rule (%d bytes, NLRI %d)", len(data), nlriLen)
	}
	nlri := data[1 : 1+nlriLen]
	r := &Rule{}
	for len(nlri) > 0 {
		typeCode := nlri[0]
		nlri = nlri[1:]
		switch typeCode {
		case compDstPrefix, compSrcPrefix:
			if len(nlri) < 1 {
				return nil, fmt.Errorf("flowspec: truncated prefix component")
			}
			bits := int(nlri[0])
			nBytes := (bits + 7) / 8
			if bits > 32 || len(nlri) < 1+nBytes {
				return nil, fmt.Errorf("flowspec: bad prefix component")
			}
			var a [4]byte
			copy(a[:], nlri[1:1+nBytes])
			p := netip.PrefixFrom(netip.AddrFrom4(a), bits)
			if typeCode == compDstPrefix {
				r.DstPrefix = p
			} else {
				r.SrcPrefix = p
			}
			nlri = nlri[1+nBytes:]
		case compProto:
			for {
				if len(nlri) < 2 {
					return nil, fmt.Errorf("flowspec: truncated proto component")
				}
				op, v := nlri[0], nlri[1]
				nlri = nlri[2:]
				if op&0x01 == 0 {
					return nil, fmt.Errorf("flowspec: non-equality proto op %#x", op)
				}
				r.Protos = append(r.Protos, v)
				if op&0x80 != 0 {
					break
				}
			}
		case compDstPort, compSrcPort:
			var vals []uint16
			for {
				if len(nlri) < 3 {
					return nil, fmt.Errorf("flowspec: truncated port component")
				}
				op := nlri[0]
				v := binary.BigEndian.Uint16(nlri[1:3])
				nlri = nlri[3:]
				if op&0x01 == 0 {
					return nil, fmt.Errorf("flowspec: non-equality port op %#x", op)
				}
				vals = append(vals, v)
				if op&0x80 != 0 {
					break
				}
			}
			if typeCode == compDstPort {
				r.DstPorts = vals
			} else {
				r.SrcPorts = vals
			}
		default:
			return nil, fmt.Errorf("flowspec: unsupported component type %d", typeCode)
		}
	}
	ext := data[1+nlriLen : 1+nlriLen+8]
	if ext[0] != 0x80 || ext[1] != 0x06 {
		return nil, fmt.Errorf("flowspec: unexpected action community %#x%02x", ext[0], ext[1])
	}
	r.RateBytesPerSec = math.Float32frombits(binary.BigEndian.Uint32(ext[4:8]))
	return r, nil
}

// Table is an ordered rule set. RFC 5575 orders rules by specificity;
// this implementation evaluates in insertion order after sorting by
// longest source prefix (the dominant discriminator for anti-spoofing
// rules), which matches the RFC's ordering for the rule shapes produced
// here.
type Table struct {
	rules []Rule
}

// NewTable builds a table from rules.
func NewTable(rules []Rule) *Table {
	t := &Table{rules: append([]Rule(nil), rules...)}
	sort.SliceStable(t.rules, func(i, j int) bool {
		return t.rules[i].SrcPrefix.Bits() > t.rules[j].SrcPrefix.Bits()
	})
	return t
}

// Match returns the first matching rule, or nil.
func (t *Table) Match(p Packet) *Rule {
	for i := range t.rules {
		if t.rules[i].Matches(p) {
			return &t.rules[i]
		}
	}
	return nil
}

// ShouldDrop reports whether the packet matches a rule whose rate is 0.
func (t *Table) ShouldDrop(p Packet) bool {
	r := t.Match(p)
	return r != nil && r.RateBytesPerSec == 0
}
