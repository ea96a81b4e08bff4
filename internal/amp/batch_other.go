//go:build !linux || !(amd64 || arm64)

package amp

import (
	"net"
	"net/netip"
)

// datagrams is one serve loop's receive buffer and the socket calls that
// fill it and forward from it. Here a batch is one datagram: read is one
// ReadFromUDPAddrPort and flush at most one WriteToUDPAddrPort.
type datagrams struct {
	conn   *net.UDPConn
	buf    [slotLen]byte
	n      int
	queued bool
}

func newDatagrams(conn *net.UDPConn) (*datagrams, error) {
	return &datagrams{conn: conn}, nil
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
func (d *datagrams) forward(int) { d.queued = true }

// flush sends the queued datagram to to, if there is one. A datagram
// the kernel refuses is dropped.
func (d *datagrams) flush(to netip.AddrPort) {
	if d.queued {
		_, _ = d.conn.WriteToUDPAddrPort(d.buf[:d.n], to)
		d.queued = false
	}
}
