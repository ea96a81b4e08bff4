//go:build linux && (amd64 || arm64)

package amp

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"unsafe"

	"spooftrack/internal/trace"
)

// sendLog is the messages the senders handed to the kernel, in order,
// each as the number of datagrams it carried and its segment size (0
// without a UDP_SEGMENT control message), and the number of messages
// each sendmmsg call handed over.
type sendLog struct {
	mu    sync.Mutex
	msgs  []int
	segs  []int
	calls []int
}

func (l *sendLog) snapshot() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.msgs...)
}

// interceptSends puts refuse in front of every sendmmsg the senders
// make until the test ends. As the kernel does with a message it
// refuses, a call sends the messages before the first one refuse
// answers with a nonzero errno, and the next call fails with that errno.
// Start the border or attacker after the call, and close a border before
// the test returns.
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
			seg := 0
			if c := msgs[i].hdr.Control; c != nil {
				seg = int((*segmentCmsg)(unsafe.Pointer(c)).size)
			}
			l.msgs = append(l.msgs, int(msgs[i].hdr.Iovlen))
			l.segs = append(l.segs, seg)
		}
		if n > 0 {
			l.calls = append(l.calls, n)
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

// floodTarget is a plain UDP socket that counts the datagrams it
// receives until the test ends.
func floodTarget(t *testing.T) (*net.UDPAddr, func() int64) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, slotLen)
		for {
			if _, _, err := conn.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
			n.Add(1)
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	return conn.LocalAddr().(*net.UDPAddr), n.Load
}

// loggedAttacker starts an attacker under interceptSends(refuse) and a
// floodTarget for it. It returns the send log, the attacker, the
// target's address and its count of datagrams received.
func loggedAttacker(t *testing.T, refuse func(m *mmsghdr) syscall.Errno) (*sendLog, *Attacker, *net.UDPAddr, func() int64) {
	t.Helper()
	log := interceptSends(t, refuse)
	to, received := floodTarget(t)
	a, err := NewAttacker(100, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return log, a, to, received
}

// accept refuses no message.
func accept(*mmsghdr) syscall.Errno { return 0 }

// TestAttackerBurstIsOneGSOMessage floods one batch: one sendmmsg call
// hands over one message of 32 datagrams whose segment size is the
// datagram's length, and the target receives all 32.
func TestAttackerBurstIsOneGSOMessage(t *testing.T) {
	log, a, to, received := loggedAttacker(t, accept)
	if sent, err := a.FloodPayload(to, batchSize, make([]byte, 8)); err != nil || sent != batchSize {
		t.Fatalf("sent %d of %d: %v", sent, batchSize, err)
	}
	waitFor(t, func() bool { return received() == batchSize })
	log.mu.Lock()
	defer log.mu.Unlock()
	if fmt.Sprint(log.calls, log.msgs, log.segs) != fmt.Sprint([]int{1}, []int{batchSize}, []int{headerLen + 8}) {
		t.Fatalf("calls %v, messages %v, segment sizes %v: want one call of one message of %d datagrams of %d bytes",
			log.calls, log.msgs, log.segs, batchSize, headerLen+8)
	}
}

// TestAttackerFloodsInBatches floods 70 requests: three flushes, one
// GSO message each, of 32, 32 and 6 datagrams.
func TestAttackerFloodsInBatches(t *testing.T) {
	log, a, to, received := loggedAttacker(t, accept)
	if sent, err := a.FloodPayload(to, 70, make([]byte, maxPayload)); err != nil || sent != 70 {
		t.Fatalf("sent %d of 70: %v", sent, err)
	}
	waitFor(t, func() bool { return received() == 70 })
	log.mu.Lock()
	defer log.mu.Unlock()
	if fmt.Sprint(log.calls, log.msgs) != fmt.Sprint([]int{1, 1, 1}, []int{32, 32, 6}) {
		t.Fatalf("calls %v, messages %v: want three calls of one message of 32, 32 and 6 datagrams", log.calls, log.msgs)
	}
}

// TestAttackerRefusedRunResendsEach refuses the attacker's first run
// with EPERM and then the fifth datagram sent on its own: the other 31
// go one message each and arrive, FloodPayload counts 31 and reports
// the refusal, and the next flood goes as one run again.
func TestAttackerRefusedRunResendsEach(t *testing.T) {
	refusedRun, singles := false, 0
	log, a, to, received := loggedAttacker(t, func(m *mmsghdr) syscall.Errno {
		if m.hdr.Iovlen > 1 {
			if refusedRun {
				return 0
			}
			refusedRun = true
			return syscall.EPERM
		}
		if singles++; singles == 5 {
			return syscall.EPERM
		}
		return 0
	})
	sent, err := a.FloodPayload(to, batchSize, make([]byte, 8))
	if sent != batchSize-1 || err != syscall.EPERM {
		t.Fatalf("FloodPayload = %d, %v; want %d, EPERM", sent, err, batchSize-1)
	}
	waitFor(t, func() bool { return received() == batchSize-1 })
	msgs := log.snapshot()
	if len(msgs) != batchSize-1 {
		t.Fatalf("messages %v: want %d of one datagram", msgs, batchSize-1)
	}
	for _, k := range msgs {
		if k != 1 {
			t.Fatalf("messages %v: a message after the refused run carried %d datagrams", msgs, k)
		}
	}
	if sent, err := a.FloodPayload(to, batchSize, make([]byte, 8)); err != nil || sent != batchSize {
		t.Fatalf("second flood sent %d of %d: %v", sent, batchSize, err)
	}
	waitFor(t, func() bool { return received() == 2*batchSize-1 })
	if msgs := log.snapshot(); msgs[len(msgs)-1] != batchSize {
		t.Fatalf("messages %v: want the second flood as one run of %d", msgs, batchSize)
	}
}

// TestForwardedRunIsOneRead has the border read 32 requests of one
// length at once and forward them as one GSO run: the honeypot, whose
// socket has UDP_GRO on, reads the run whole. Its serve span counts
// three reads, the run's and the two gates', for the 34 requests.
func TestForwardedRunIsOneRead(t *testing.T) {
	tr := trace.New(trace.Options{Enabled: true})
	trace.SetGlobal(tr)
	defer trace.SetGlobal(trace.New(trace.Options{}))
	g := newGatedPlane(t)
	plens := make([]int, batchSize)
	for i := range plens {
		plens[i] = 8
	}
	run := runBatch(t, 1, plens...)
	checkDelivered(t, g.send(t, run)[0], run)
	g.border.Close()
	g.hp.Close()
	got := map[string]int64{}
	for _, rec := range tr.Snapshot() {
		if rec.Name == "amp.honeypot.serve" {
			for _, c := range rec.Counters {
				got[c.Name] = c.Value
			}
		}
	}
	if got["reads"] != 3 || got["accepted"] != batchSize+2 {
		t.Fatalf("honeypot span counts %v: want %d accepted in 3 reads, the run of %d in one",
			got, batchSize+2, batchSize)
	}
}
