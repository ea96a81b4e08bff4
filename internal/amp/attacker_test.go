package amp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
)

// attackerWireDigest is TestAttackerWireDigest's digest of what the
// attacker puts on the wire, captured while it still sent one datagram
// per sendto(2). A change to it is a change in the bytes, the number or
// the order of the datagrams a flood sends.
const attackerWireDigest = "279d944ccb8f2c21cc9f4ff4a8491988a92f52556ee1b0671f8b4a01e676a9d9"

// TestAttackerWireDigest floods 70 requests with an 8-byte payload and
// then 70 with a 1 400-byte one at a plain UDP socket, each flood waited
// for until all of it is read, and digests every datagram received, in
// order: its length and its bytes. 70 is two full sends of 32 and a
// partial one.
func TestAttackerWireDigest(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(1 << 20)
	var (
		mu  sync.Mutex
		got [][]byte
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			n, _, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			mu.Lock()
			got = append(got, append([]byte(nil), buf[:n]...))
			mu.Unlock()
		}
	}()
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}

	a, err := NewAttacker(64500, netip.MustParseAddr("198.51.100.7"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const n = 70
	for i, plen := range []int{8, maxPayload} {
		payload := make([]byte, plen)
		for j := range payload {
			payload[j] = byte(j*13 + plen)
		}
		sent, err := a.FloodPayload(conn.LocalAddr(), n, payload)
		if err != nil || sent != n {
			t.Fatalf("flood of %d-byte payloads sent %d of %d: %v", plen, sent, n, err)
		}
		waitFor(t, func() bool { return received() >= (i+1)*n })
	}
	conn.Close()
	<-done

	h := sha256.New()
	for _, d := range got {
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(d))))
		h.Write(d)
	}
	if len(got) != 2*n {
		t.Fatalf("received %d datagrams, want %d", len(got), 2*n)
	}
	if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != attackerWireDigest {
		t.Fatalf("attacker wire digest %s, want %s", sum, attackerWireDigest)
	}
}
