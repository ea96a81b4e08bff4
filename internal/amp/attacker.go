package amp

import (
	"fmt"
	"net"
	"net/netip"
)

// Attacker crafts amplification requests with a forged source address
// and sends them toward the origin's border router, as the compromised
// hosts in §V-D's placements would. An Attacker is not safe for
// concurrent FloodPayload calls: it encodes each flood's request into a
// buffer of its own and sends from it.
type Attacker struct {
	conn *net.UDPConn
	out  sender
	req  []byte // the last flood's encoded request
	// TrueAS is the AS the attacker actually sits in; the border
	// resolves it to an ingress link.
	TrueAS uint32
	// Victim is the spoofed source address: amplified responses are
	// reflected there.
	Victim netip.Addr
}

// NewAttacker creates an attack client bound to an ephemeral local port.
func NewAttacker(trueAS uint32, victim netip.Addr) (*Attacker, error) {
	conn, err := listenUDP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a := &Attacker{conn: conn, TrueAS: trueAS, Victim: victim}
	if err := a.out.init(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return a, nil
}

// Close releases the attacker's socket.
func (a *Attacker) Close() error { return a.conn.Close() }

// Flood sends n spoofed requests with the given query payload size to
// the border router. It returns the number of packets actually written.
func (a *Attacker) Flood(border net.Addr, n, payloadLen int) (int, error) {
	if payloadLen < 1 || payloadLen > maxPayload {
		return 0, fmt.Errorf("amp: payload length %d out of range", payloadLen)
	}
	return a.FloodPayload(border, n, make([]byte, payloadLen))
}

// FloodPayload sends n spoofed requests carrying the exact payload —
// e.g., a DNS ANY query or NTP monlist request built by the protocol
// helpers — to the UDP address border. The requests go batchSize at a
// time, each batch one flush of the sender, so on Linux a batch is one
// GSO message that the kernel splits back into its datagrams. It
// returns the number of datagrams the kernel accepted and the first
// error; it stops after the batch that met the error.
func (a *Attacker) FloodPayload(border net.Addr, n int, payload []byte) (int, error) {
	to, ok := border.(*net.UDPAddr)
	if !ok {
		return 0, fmt.Errorf("amp: border address %v is not a UDP address", border)
	}
	pkt := Packet{
		Type:        TypeRequest,
		IngressLink: LinkUnset,
		TrueSrcAS:   a.TrueAS,
		SpoofedSrc:  a.Victim,
		Payload:     payload,
	}
	var err error
	if a.req, err = pkt.appendTo(a.req[:0]); err != nil {
		return 0, err
	}
	dst := addrPort(to)
	sent := 0
	for left := n; left > 0; left -= batchSize {
		for range min(left, batchSize) {
			a.out.queue(a.req)
		}
		m, err := a.out.flush(dst)
		sent += m
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}
