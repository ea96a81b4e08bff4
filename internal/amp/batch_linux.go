//go:build linux && (amd64 || arm64)

package amp

import (
	"encoding/binary"
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"
)

// batchSize bounds the datagrams one recvmmsg(2) reads and one
// sendmmsg(2) forwards.
const batchSize = 32

// sysSendmmsg returns sendmmsg(2)'s number. The syscall package names
// it on arm64 only.
func sysSendmmsg() uintptr {
	if runtime.GOARCH == "arm64" {
		return 269
	}
	return 307
}

// mmsghdr is struct mmsghdr: a message header and the byte count the
// kernel reports for it.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// datagrams is one serve loop's receive arena and the socket calls that
// fill it and forward from it: read takes up to batchSize datagrams with
// one recvmmsg, forward queues a received slot, and flush sends the
// queued slots with one sendmmsg. Both calls go through the socket's
// RawConn with MSG_DONTWAIT and report "not done" on EAGAIN, so the
// goroutine parks in the netpoller and Close ends a parked read, as with
// the net package's own reads. Nothing allocates after newDatagrams: the
// headers point into the arena once, and the callbacks are built once.
type datagrams struct {
	rc    syscall.RawConn
	slots [batchSize][slotLen]byte

	recv    [batchSize]mmsghdr
	recvIov [batchSize]syscall.Iovec
	n       int           // datagrams the last read filled
	errno   syscall.Errno // the last read's error other than EAGAIN

	send    [batchSize]mmsghdr
	sendIov [batchSize]syscall.Iovec
	queued  int // slots forward queued since the last flush
	sent    int // queued slots the current flush has handed over
	to4     syscall.RawSockaddrInet4
	to6     syscall.RawSockaddrInet6

	readFn, writeFn func(fd uintptr) bool
}

func newDatagrams(conn *net.UDPConn) (*datagrams, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	d := &datagrams{rc: rc}
	d.to4.Family, d.to6.Family = syscall.AF_INET, syscall.AF_INET6
	for i := range d.recv {
		d.recvIov[i].Base = &d.slots[i][0]
		d.recvIov[i].SetLen(slotLen)
		d.recv[i].hdr.Iov = &d.recvIov[i]
		d.recv[i].hdr.Iovlen = 1
		d.send[i].hdr.Iov = &d.sendIov[i]
		d.send[i].hdr.Iovlen = 1
	}
	d.readFn, d.writeFn = d.recvmmsg, d.sendmmsg
	return d, nil
}

// read waits for datagrams and reads up to batchSize of them, returning
// how many. A datagram longer than slotLen is cut to slotLen bytes.
func (d *datagrams) read() (int, error) {
	d.n, d.errno = 0, 0
	if err := d.rc.Read(d.readFn); err != nil {
		return 0, err
	}
	if d.errno != 0 {
		return 0, d.errno
	}
	return d.n, nil
}

func (d *datagrams) recvmmsg(fd uintptr) bool {
	for {
		n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&d.recv[0])),
			batchSize, syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			d.n = int(n)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			d.errno = e
			return true
		}
	}
}

// datagram returns the i-th datagram of the last read.
func (d *datagrams) datagram(i int) []byte { return d.slots[i][:d.recv[i].len] }

// forward queues the i-th datagram of the last read, as it now stands
// in its slot, for the next flush.
func (d *datagrams) forward(i int) {
	d.sendIov[d.queued].Base = &d.slots[i][0]
	d.sendIov[d.queued].SetLen(int(d.recv[i].len))
	d.queued++
}

// flush sends every queued datagram to to. A datagram the kernel refuses
// is dropped, as a failed WriteToUDPAddrPort would drop it.
func (d *datagrams) flush(to netip.AddrPort) {
	if d.queued == 0 {
		return
	}
	// An IPv4 destination goes as a sockaddr_in, which Linux also
	// accepts on a dual-stack IPv6 socket. The port is in network byte
	// order.
	name, namelen := (*byte)(unsafe.Pointer(&d.to4)), uint32(syscall.SizeofSockaddrInet4)
	if addr := to.Addr().Unmap(); addr.Is4() {
		d.to4.Addr = addr.As4()
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&d.to4.Port))[:], to.Port())
	} else {
		d.to6.Addr = addr.As16()
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&d.to6.Port))[:], to.Port())
		name, namelen = (*byte)(unsafe.Pointer(&d.to6)), syscall.SizeofSockaddrInet6
	}
	for i := range d.send[:d.queued] {
		d.send[i].hdr.Name, d.send[i].hdr.Namelen = name, namelen
	}
	d.sent = 0
	_ = d.rc.Write(d.writeFn)
	d.queued = 0
}

func (d *datagrams) sendmmsg(fd uintptr) bool {
	for d.sent < d.queued {
		n, _, e := syscall.Syscall6(sysSendmmsg(), fd, uintptr(unsafe.Pointer(&d.send[d.sent])),
			uintptr(d.queued-d.sent), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			d.sent += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default: // the first unsent datagram failed
			d.sent++
		}
	}
	return true
}
