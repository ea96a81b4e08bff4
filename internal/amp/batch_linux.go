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

// UDP generic segmentation offload (udp(7)): one message whose iovecs
// carry several datagrams of one length, with a UDP_SEGMENT control
// message giving that length, goes through IP and the device as one
// buffer and reaches the receiver as those datagrams.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT
)

// A run is at most a batch, and a batch of full slots fits the 65 507
// bytes one IPv4 UDP message carries, so no run needs cutting by size.
// The array's length is negative, and the build fails, if it ever would.
var _ [65507 - batchSize*slotLen]byte

// segmentCmsg is a UDP_SEGMENT control message: the header and the
// segment size, padded to CMSG_SPACE(2).
type segmentCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// callSendmmsg makes one sendmmsg(2) call over msgs and returns how many
// messages it handed over. A variable, so that a test can have a message
// refused.
var callSendmmsg = func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
	n, _, e := syscall.Syscall6(sysSendmmsg(), fd, uintptr(unsafe.Pointer(&msgs[0])),
		uintptr(len(msgs)), syscall.MSG_DONTWAIT, 0, 0)
	return int(n), e
}

// datagrams is one serve loop's receive arena and the socket calls that
// fill it and forward from it: read takes up to batchSize datagrams with
// one recvmmsg, forward queues a received slot, and flush sends the
// queued slots with one sendmmsg, each run of consecutive equal-length
// datagrams as one GSO message. Both calls go through the socket's
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

	send    [batchSize]mmsghdr       // the current flush's messages
	sendIov [batchSize]syscall.Iovec // the queued datagrams, in arrival order
	seg     [batchSize]segmentCmsg   // send[i]'s control message when it carries a run
	queued  int                      // slots forward queued since the last flush
	msgs    int                      // messages the current flush sends
	sent    int                      // messages the current flush has handed over
	done    int                      // queued datagrams those messages carry
	gso     bool                     // runs go as one message; off for good once refused
	name    *byte                    // the current flush's destination
	namelen uint32
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
		d.seg[i].hdr.Level, d.seg[i].hdr.Type = solUDP, udpSegment
		d.seg[i].hdr.SetLen(syscall.CmsgLen(2))
	}
	// A kernel that reads UDP_SEGMENT (4.18 on) also answers it as a
	// socket option. An older one would ignore the control message and
	// send a run as one datagram, so there runs stay off.
	if err := rc.Control(func(fd uintptr) {
		_, err := syscall.GetsockoptInt(int(fd), solUDP, udpSegment)
		d.gso = err == nil
	}); err != nil {
		return nil, err
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
	d.name, d.namelen = (*byte)(unsafe.Pointer(&d.to4)), syscall.SizeofSockaddrInet4
	if addr := to.Addr().Unmap(); addr.Is4() {
		d.to4.Addr = addr.As4()
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&d.to4.Port))[:], to.Port())
	} else {
		d.to6.Addr = addr.As16()
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&d.to6.Port))[:], to.Port())
		d.name, d.namelen = (*byte)(unsafe.Pointer(&d.to6)), syscall.SizeofSockaddrInet6
	}
	d.sent, d.done = 0, 0
	d.pack(d.gso)
	_ = d.rc.Write(d.writeFn)
	d.queued = 0
}

// pack lays out the queued datagrams not yet handed over as the
// messages from the d.sent-th on. With runs, each run of consecutive
// datagrams of one length is one message carrying a UDP_SEGMENT control
// message; a run of one carries none. Without, each datagram is a
// message of its own.
func (d *datagrams) pack(runs bool) {
	m := d.sent
	for i := d.done; i < d.queued; m++ {
		l := d.sendIov[i].Len
		k := 1
		for runs && i+k < d.queued && d.sendIov[i+k].Len == l {
			k++
		}
		h := &d.send[m].hdr
		h.Name, h.Namelen = d.name, d.namelen
		h.Iov, h.Iovlen = &d.sendIov[i], uint64(k)
		h.Control, h.Controllen = nil, 0
		if k > 1 {
			d.seg[m].size = uint16(l)
			h.Control = (*byte)(unsafe.Pointer(&d.seg[m]))
			h.SetControllen(int(unsafe.Sizeof(d.seg[m])))
		}
		i += k
	}
	d.msgs = m
}

func (d *datagrams) sendmmsg(fd uintptr) bool {
	for d.sent < d.msgs {
		n, e := callSendmmsg(fd, d.send[d.sent:d.msgs])
		switch e {
		case 0:
			for end := d.sent + n; d.sent < end; d.sent++ {
				d.done += int(d.send[d.sent].hdr.Iovlen)
			}
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default: // the first unsent message failed
			d.refused(e)
		}
	}
	return true
}

// refused handles the kernel refusing the first unsent message with e.
// A message of one datagram is dropped. A run's datagrams, and every
// one after them in this flush, are sent again one message each, so a
// refused datagram costs only itself. EIO (a device without checksum
// offload), EINVAL (a segment longer than the path MTU) and ENOPROTOOPT
// (a kernel without UDP GSO) refuse every run, so they turn runs off
// for the loop's lifetime.
func (d *datagrams) refused(e syscall.Errno) {
	if d.send[d.sent].hdr.Iovlen == 1 {
		d.sent++
		d.done++
		return
	}
	if e == syscall.EIO || e == syscall.EINVAL || e == syscall.ENOPROTOOPT {
		d.gso = false
	}
	d.pack(false)
}
