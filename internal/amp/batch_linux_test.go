//go:build linux && (amd64 || arm64)

package amp

import (
	"net/netip"
	"sync"
	"syscall"
	"testing"
	"unsafe"
)

// sendLog is the messages the serve loops handed to the kernel, in
// order, each as the number of datagrams it carried.
type sendLog struct {
	mu   sync.Mutex
	msgs []int
}

func (l *sendLog) snapshot() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.msgs...)
}

// interceptSends puts refuse in front of every sendmmsg the serve loops
// make until the test ends. As the kernel does with a message it
// refuses, a call sends the messages before the first one refuse
// answers with a nonzero errno, and the next call fails with that errno.
// Start the border after the call and close it before the test returns.
func interceptSends(t *testing.T, refuse func(m *mmsghdr) syscall.Errno) *sendLog {
	l := &sendLog{}
	kernel := callSendmmsg
	var held syscall.Errno // the refusal the last call stopped before
	callSendmmsg = func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
		if e := held; e != 0 {
			held = 0
			return 0, e
		}
		j := 0
		for j < len(msgs) && held == 0 {
			if held = refuse(&msgs[j]); held == 0 {
				j++
			}
		}
		if j == 0 {
			e := held
			held = 0
			return 0, e
		}
		n, e := kernel(fd, msgs[:j])
		if n < j {
			held = 0 // the kernel stopped first; the refused message comes again
		}
		l.mu.Lock()
		for i := range msgs[:n] {
			l.msgs = append(l.msgs, int(msgs[i].hdr.Iovlen))
		}
		l.mu.Unlock()
		return n, e
	}
	t.Cleanup(func() { callSendmmsg = kernel })
	return l
}

// carries reports whether message m carries the request spoofing src.
func carries(m *mmsghdr, src netip.Addr) bool {
	for _, iov := range unsafe.Slice(m.hdr.Iov, m.hdr.Iovlen) {
		var p Packet
		if p.decode(unsafe.Slice(iov.Base, iov.Len)) == nil && p.SpoofedSrc == src {
			return true
		}
	}
	return false
}

// runBatch is the requests 192.0.2.<first>… of payload lengths plens,
// all from the mapped AS 100.
func runBatch(t *testing.T, first byte, plens ...int) [][]byte {
	var out [][]byte
	for i, plen := range plens {
		out = append(out, request(t, 100, first+byte(i), plen))
	}
	return out
}

// TestGSORefusalResendsEachOnce refuses the border's first run with
// EINVAL, as a device whose MTU is shorter than the segment would: every
// datagram of the batch still reaches the honeypot once and in order,
// and from then on the loop sends one message per datagram.
func TestGSORefusalResendsEachOnce(t *testing.T) {
	refusedAt := -1
	var log *sendLog
	log = interceptSends(t, func(m *mmsghdr) syscall.Errno {
		if m.hdr.Iovlen > 1 && refusedAt < 0 {
			refusedAt = len(log.snapshot())
			return syscall.EINVAL
		}
		return 0
	})
	g := newGatedPlane(t)
	first := runBatch(t, 1, 1400, 8, 8, 8, 0, 0, 1400, 1400, 1400)
	second := runBatch(t, 20, 8, 8, 8, 1400, 1400)
	got := g.send(t, first, second)
	g.border.Close()
	checkDelivered(t, got[0], first)
	checkDelivered(t, got[1], second)
	if refusedAt < 0 {
		t.Fatal("no run was sent, so none was refused")
	}
	for _, n := range log.snapshot()[refusedAt:] {
		if n != 1 {
			t.Fatalf("a message after the refusal carried %d datagrams, want 1: %v", n, log.snapshot())
		}
	}
}

// TestRefusedDatagramInRunCostsOnlyItself refuses one request inside a
// run with EPERM, as a firewall rule would: only that request is lost,
// the rest arrive once and in order, and the next batch still goes as
// runs.
func TestRefusedDatagramInRunCostsOnlyItself(t *testing.T) {
	refused := netip.AddrFrom4([4]byte{192, 0, 2, 3})
	log := interceptSends(t, func(m *mmsghdr) syscall.Errno {
		if carries(m, refused) {
			return syscall.EPERM
		}
		return 0
	})
	g := newGatedPlane(t)
	first := runBatch(t, 1, 8, 8, 8, 8, 8, 1400, 1400)
	second := runBatch(t, 20, 8, 8, 8, 1400, 1400)
	got := g.send(t, first, second)
	g.border.Close()
	checkDelivered(t, got[0], append(first[:2:2], first[3:]...))
	checkDelivered(t, got[1], second)
	msgs := log.snapshot()
	if last := msgs[len(msgs)-3:]; last[0] != 3 || last[1] != 2 || last[2] != 1 {
		t.Fatalf("messages %v: want the second batch as runs of 3 and 2, then the closing gate", msgs)
	}
}
