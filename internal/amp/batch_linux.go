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
// buffer and reaches a receiver as those datagrams, or as the one
// buffer if the receiver has UDP_GRO on.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT
)

// A run is at most a batch, and a batch of slot-long datagrams, longer
// than any that decodes, fits the 65 507 bytes one IPv4 UDP message
// carries, so no run needs cutting by size.
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

// sender queues datagrams and sends them with one sendmmsg(2) per
// flush, each run of consecutive equal-length datagrams as one GSO
// message. It is the border's forward path and the attacker's flood
// path. The call goes through the socket's RawConn with MSG_DONTWAIT
// and reports "not done" on EAGAIN, so the goroutine parks in the
// netpoller as with the net package's own writes. Nothing allocates
// after init: the callback is built once, and a flush lays its messages
// over fixed arrays.
type sender struct {
	rc      syscall.RawConn
	send    [batchSize]mmsghdr       // the current flush's messages
	sendIov [batchSize]syscall.Iovec // the queued datagrams, in queue order
	seg     [batchSize]segmentCmsg   // send[i]'s control message when it carries a run
	queued  int                      // datagrams queued since the last flush
	msgs    int                      // messages the current flush sends
	sent    int                      // messages the current flush has handed over
	done    int                      // queued datagrams those messages carry
	lost    int                      // of those, datagrams the kernel refused
	refusal syscall.Errno            // the current flush's first refusal
	gso     bool                     // runs go as one message; off for good once refused
	name    *byte                    // the current flush's destination
	namelen uint32
	to4     syscall.RawSockaddrInet4
	to6     syscall.RawSockaddrInet6

	writeFn func(fd uintptr) bool
}

// init readies s to send on conn. s must not move afterwards.
func (s *sender) init(conn *net.UDPConn) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	s.rc = rc
	s.to4.Family, s.to6.Family = syscall.AF_INET, syscall.AF_INET6
	for i := range s.seg {
		s.seg[i].hdr.Level, s.seg[i].hdr.Type = solUDP, udpSegment
		s.seg[i].hdr.SetLen(syscall.CmsgLen(2))
	}
	// A kernel that reads UDP_SEGMENT (4.18 on) also answers it as a
	// socket option. An older one would ignore the control message and
	// send a run as one datagram, so there runs stay off.
	if err := rc.Control(func(fd uintptr) {
		_, err := syscall.GetsockoptInt(int(fd), solUDP, udpSegment)
		s.gso = err == nil
	}); err != nil {
		return err
	}
	s.writeFn = s.sendmmsg
	return nil
}

// queue adds b to the next flush. b must stay unchanged until then, and
// at most batchSize datagrams are queued between flushes.
func (s *sender) queue(b []byte) {
	s.sendIov[s.queued].Base = &b[0]
	s.sendIov[s.queued].SetLen(len(b))
	s.queued++
}

// flush sends every queued datagram to to and returns how many the
// kernel accepted, with the first error: a refusal, or the socket's own
// error if it closed. A datagram the kernel refuses is dropped, as a
// failed WriteToUDPAddrPort would drop it; the rest of the flush is
// still sent.
func (s *sender) flush(to netip.AddrPort) (int, error) {
	if s.queued == 0 {
		return 0, nil
	}
	// An IPv4 destination goes as a sockaddr_in, which Linux also
	// accepts on a dual-stack IPv6 socket. The port is in network byte
	// order.
	s.name, s.namelen = (*byte)(unsafe.Pointer(&s.to4)), syscall.SizeofSockaddrInet4
	if addr := to.Addr().Unmap(); addr.Is4() {
		s.to4.Addr = addr.As4()
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&s.to4.Port))[:], to.Port())
	} else {
		s.to6.Addr = addr.As16()
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&s.to6.Port))[:], to.Port())
		s.name, s.namelen = (*byte)(unsafe.Pointer(&s.to6)), syscall.SizeofSockaddrInet6
	}
	s.sent, s.done, s.lost, s.refusal = 0, 0, 0, 0
	s.pack(s.gso)
	err := s.rc.Write(s.writeFn)
	s.queued = 0
	if err == nil && s.refusal != 0 {
		err = s.refusal
	}
	return s.done - s.lost, err
}

// pack lays out the queued datagrams not yet handed over as the
// messages from the s.sent-th on. With runs, each run of consecutive
// datagrams of one length is one message carrying a UDP_SEGMENT control
// message; a run of one carries none. Without, each datagram is a
// message of its own.
func (s *sender) pack(runs bool) {
	m := s.sent
	for i := s.done; i < s.queued; m++ {
		l := s.sendIov[i].Len
		k := 1
		for runs && i+k < s.queued && s.sendIov[i+k].Len == l {
			k++
		}
		h := &s.send[m].hdr
		h.Name, h.Namelen = s.name, s.namelen
		h.Iov, h.Iovlen = &s.sendIov[i], uint64(k)
		h.Control, h.Controllen = nil, 0
		if k > 1 {
			s.seg[m].size = uint16(l)
			h.Control = (*byte)(unsafe.Pointer(&s.seg[m]))
			h.SetControllen(int(unsafe.Sizeof(s.seg[m])))
		}
		i += k
	}
	s.msgs = m
}

func (s *sender) sendmmsg(fd uintptr) bool {
	for s.sent < s.msgs {
		n, e := callSendmmsg(fd, s.send[s.sent:s.msgs])
		switch e {
		case 0:
			for end := s.sent + n; s.sent < end; s.sent++ {
				s.done += int(s.send[s.sent].hdr.Iovlen)
			}
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default: // the first unsent message failed
			s.refused(e)
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
// for the sender's lifetime.
func (s *sender) refused(e syscall.Errno) {
	if s.refusal == 0 {
		s.refusal = e
	}
	if s.send[s.sent].hdr.Iovlen == 1 {
		s.sent++
		s.done++
		s.lost++
		return
	}
	if e == syscall.EIO || e == syscall.EINVAL || e == syscall.ENOPROTOOPT {
		s.gso = false
	}
	s.pack(false)
}

// datagrams is the border's receive arena and the socket calls that
// fill it and forward from it: read takes up to batchSize datagrams with
// one recvmmsg, forward queues a received slot on the loop's sender, and
// flush sends the queued slots. The read goes through the socket's
// RawConn as the sender's write does, so Close ends a parked read.
// Nothing allocates after newDatagrams: the headers point into the
// arena once, and the callbacks are built once. The border's socket
// reads without UDP_GRO, so the kernel splits what arrives as one GSO
// message back into its datagrams, one to a slot.
type datagrams struct {
	sender
	slots [batchSize][slotLen]byte

	recv    [batchSize]mmsghdr
	recvIov [batchSize]syscall.Iovec
	n       int           // datagrams the last read filled
	errno   syscall.Errno // the last read's error other than EAGAIN

	readFn func(fd uintptr) bool
}

func newDatagrams(conn *net.UDPConn) (*datagrams, error) {
	d := &datagrams{}
	if err := d.sender.init(conn); err != nil {
		return nil, err
	}
	for i := range d.recv {
		d.recvIov[i].Base = &d.slots[i][0]
		d.recvIov[i].SetLen(slotLen)
		d.recv[i].hdr.Iov = &d.recvIov[i]
		d.recv[i].hdr.Iovlen = 1
	}
	d.readFn = d.recvmmsg
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
func (d *datagrams) forward(i int) { d.queue(d.datagram(i)) }

// udpGRO is UDP_GRO (udp(7)): with it on, a socket is handed a run of
// datagrams that arrived as one GSO message (or that a NIC's GRO
// coalesced) as one buffer, with a UDP_GRO control message giving the
// segment size. Linux 5.0 on.
const udpGRO = 104

// groCmsg is room for a UDP_GRO control message: the header and the
// segment size, an int, padded to CMSG_SPACE(4).
type groCmsg struct {
	hdr  syscall.Cmsghdr
	size int32
	_    [4]byte
}

// receiver is the honeypot's read: one recvmsg(2) per wakeup into one
// buffer that holds any datagram whole, on a socket with UDP_GRO on. A
// run the border forwarded as one GSO message arrives as one buffer and
// is split at its segment size, so a burst of 32 is one read and one
// copy. A buffer without a UDP_GRO control message, an empty one
// included, or flagged MSG_TRUNC is one datagram; a kernel that refuses
// the option (before 5.0) reads one datagram per call through the same
// loop. The read goes through the socket's RawConn with MSG_DONTWAIT,
// as the border's does, so Close ends a parked read. Nothing allocates
// after newReceiver.
type receiver struct {
	rc    syscall.RawConn
	buf   [readLen]byte
	msg   syscall.Msghdr
	iov   syscall.Iovec
	ctl   groCmsg
	n     int           // bytes the last read filled
	seg   int           // the last read's segment size; 0 when it is one datagram
	errno syscall.Errno // the last read's error other than EAGAIN

	readFn func(fd uintptr) bool
}

func newReceiver(conn *net.UDPConn) (*receiver, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	r := &receiver{rc: rc}
	r.iov.Base = &r.buf[0]
	r.iov.SetLen(len(r.buf))
	r.msg.Iov, r.msg.Iovlen = &r.iov, 1
	r.msg.Control = (*byte)(unsafe.Pointer(&r.ctl))
	if err := rc.Control(func(fd uintptr) {
		// A refusal leaves every read one datagram, which is still right.
		_ = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
	}); err != nil {
		return nil, err
	}
	r.readFn = r.recvmsg
	return r, nil
}

// read waits for a buffer and reads it, returning how many datagrams it
// holds.
func (r *receiver) read() (int, error) {
	r.errno = 0
	if err := r.rc.Read(r.readFn); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, r.errno
	}
	if r.seg == 0 {
		return 1, nil
	}
	return (r.n + r.seg - 1) / r.seg, nil
}

func (r *receiver) recvmsg(fd uintptr) bool {
	for {
		r.msg.SetControllen(int(unsafe.Sizeof(r.ctl)))
		n, _, e := syscall.Syscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&r.msg)), syscall.MSG_DONTWAIT)
		switch e {
		case 0:
			r.n, r.seg = int(n), 0
			if r.msg.Flags&syscall.MSG_TRUNC == 0 && int(r.msg.Controllen) >= syscall.CmsgLen(4) &&
				r.ctl.hdr.Level == solUDP && r.ctl.hdr.Type == udpGRO && r.ctl.size > 0 {
				r.seg = int(r.ctl.size)
			}
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			r.errno = e
			return true
		}
	}
}

// datagram returns the i-th datagram of the last read: its i-th segment,
// the last one possibly shorter.
func (r *receiver) datagram(i int) []byte {
	if r.seg == 0 {
		return r.buf[:r.n]
	}
	return r.buf[i*r.seg : min((i+1)*r.seg, r.n)]
}
