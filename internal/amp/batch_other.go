//go:build !linux || !(amd64 || arm64)

package amp

import (
	"net"
	"net/netip"
)

// sender queues datagrams and sends them on flush, here with one
// WriteToUDPAddrPort each. It is the border's forward path and the
// attacker's flood path.
type sender struct {
	conn   *net.UDPConn
	bufs   [batchSize][]byte
	queued int
}

// init readies s to send on conn.
func (s *sender) init(conn *net.UDPConn) error {
	s.conn = conn
	return nil
}

// queue adds b to the next flush. b must stay unchanged until then, and
// at most batchSize datagrams are queued between flushes.
func (s *sender) queue(b []byte) {
	s.bufs[s.queued] = b
	s.queued++
}

// flush sends every queued datagram to to and returns how many were
// written, with the first error. A datagram the kernel refuses is
// dropped; the rest of the flush is still sent.
func (s *sender) flush(to netip.AddrPort) (int, error) {
	var first error
	sent := 0
	for i, b := range s.bufs[:s.queued] {
		if _, err := s.conn.WriteToUDPAddrPort(b, to); err != nil {
			if first == nil {
				first = err
			}
		} else {
			sent++
		}
		s.bufs[i] = nil
	}
	s.queued = 0
	return sent, first
}

// datagrams is the border's receive buffer and the socket calls that
// fill it and forward from it. Here a read is one ReadFromUDPAddrPort.
type datagrams struct {
	sender
	buf [slotLen]byte
	n   int
}

func newDatagrams(conn *net.UDPConn) (*datagrams, error) {
	d := &datagrams{}
	if err := d.sender.init(conn); err != nil {
		return nil, err
	}
	return d, nil
}

// read waits for one datagram and reads it. A datagram longer than
// slotLen is cut to slotLen bytes.
func (d *datagrams) read() (int, error) {
	var err error
	if d.n, _, err = d.conn.ReadFromUDPAddrPort(d.buf[:]); err != nil {
		return 0, err
	}
	return 1, nil
}

// datagram returns the datagram of the last read.
func (d *datagrams) datagram(int) []byte { return d.buf[:d.n] }

// forward queues the last read's datagram, as it now stands, for the
// next flush.
func (d *datagrams) forward(int) { d.queue(d.buf[:d.n]) }

// receiver is the honeypot's read: one ReadFromUDPAddrPort per datagram
// into one buffer that holds any datagram whole.
type receiver struct {
	conn *net.UDPConn
	buf  [readLen]byte
	n    int
}

func newReceiver(conn *net.UDPConn) (*receiver, error) { return &receiver{conn: conn}, nil }

// read waits for one datagram and reads it.
func (r *receiver) read() (int, error) {
	var err error
	if r.n, _, err = r.conn.ReadFromUDPAddrPort(r.buf[:]); err != nil {
		return 0, err
	}
	return 1, nil
}

// datagram returns the datagram of the last read.
func (r *receiver) datagram(int) []byte { return r.buf[:r.n] }
