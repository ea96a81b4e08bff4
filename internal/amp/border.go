package amp

import (
	"net"
	"net/netip"
	"sync"

	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
)

// Border is the origin network's edge: it receives attack traffic,
// resolves each packet's true source AS to the peering link that
// traffic currently enters on (the catchment under the deployed
// configuration), stamps the link into the overlay header, and forwards
// to the honeypot. This is the one signal the paper's whole technique
// builds on — the ingress peering link.
type Border struct {
	conn     *net.UDPConn
	upstream netip.AddrPort
	wg       sync.WaitGroup

	// setMu serializes SetCatchments and guards spare, the table the
	// next call copies into: the one the last call swapped out.
	setMu sync.Mutex
	spare map[uint32]uint8

	mu sync.Mutex
	// linkOf maps a true source AS number to its current ingress link.
	linkOf map[uint32]uint8
	// dropped counts packets from ASes with no route (no catchment).
	dropped int64
	// filter, when set, drops packets it returns true for (e.g., a
	// flowspec table installed after localization). It runs before
	// forwarding and must be safe for concurrent use; the packet is
	// valid only for the duration of the call.
	filter func(*Packet) bool
	// filtered counts packets dropped by the filter.
	filtered int64
	// packets, when set, counts every packet by outcome
	// (amp_border_packets_total{outcome}).
	packets *metrics.CounterVec
}

// NewBorder starts a border router on addr forwarding to the honeypot
// at upstream. linkOf is the initial catchment table (true source ASN ->
// peering link); the border takes it over, and refills it as its spare
// once SetCatchments replaces it, so the caller must neither change nor
// read it afterwards. A nil table routes nothing.
func NewBorder(addr string, upstream *net.UDPAddr, linkOf map[uint32]uint8) (*Border, error) {
	conn, err := listenUDP(addr)
	if err != nil {
		return nil, err
	}
	d, err := newDatagrams(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	b := &Border{conn: conn, upstream: addrPort(upstream), linkOf: linkOf}
	b.wg.Add(1)
	go b.serve(d)
	return b, nil
}

// listenUDP opens a UDP socket on addr (e.g., "127.0.0.1:0").
func listenUDP(addr string) (*net.UDPConn, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	return conn.(*net.UDPConn), nil
}

// addrPort converts a UDP address to the border's upstream. An IPv4
// address held in 16 bytes is unmapped: an IPv4 socket rejects the
// mapped form.
func addrPort(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Addr returns the border's listening address.
func (b *Border) Addr() net.Addr { return b.conn.LocalAddr() }

// SetCatchments atomically replaces the catchment table — the runtime
// equivalent of a new announcement configuration converging. The border
// copies linkOf into a table of its own, so the caller may change or
// reuse it once the call returns. It keeps two tables and swaps them:
// the copy fills the spare, outside the lock the serve loop reads the
// live one under, and the swap retires the live one as the next spare.
// No lookup holds a table past that lock, so after two calls a
// replacement allocates nothing.
func (b *Border) SetCatchments(linkOf map[uint32]uint8) {
	b.setMu.Lock()
	defer b.setMu.Unlock()
	next := b.spare
	if next == nil {
		next = make(map[uint32]uint8, len(linkOf))
	} else {
		clear(next)
	}
	for asn, l := range linkOf {
		next[asn] = l
	}
	b.mu.Lock()
	b.spare, b.linkOf = b.linkOf, next
	b.mu.Unlock()
}

// Dropped returns the number of packets with no catchment entry.
func (b *Border) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// SetFilter installs (or clears, with nil) the drop filter — the data
// path a disseminated flowspec rule set takes effect through. The
// *Packet the filter is handed is valid only for the duration of the
// call: the serve loop decodes every packet into the same Packet, whose
// payload aliases its read buffer, so a filter must copy what it keeps.
func (b *Border) SetFilter(f func(*Packet) bool) {
	b.mu.Lock()
	b.filter = f
	b.mu.Unlock()
}

// Filtered returns the number of packets the filter dropped.
func (b *Border) Filtered() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.filtered
}

// Close stops the border router.
func (b *Border) Close() error {
	err := b.conn.Close()
	b.wg.Wait()
	return err
}

func (b *Border) serve(d *datagrams) {
	defer b.wg.Done()
	// One span covers the serve loop's lifetime; per-packet outcomes are
	// its counters (malformed/drop/filter/forward).
	sp := trace.Start("amp.border.serve")
	defer sp.End()
	// One packet and one arena of datagrams for the loop's lifetime: a
	// forwarded packet allocates nothing.
	var pkt Packet
	for {
		n, err := d.read()
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			if b.admit(&pkt, d.datagram(i), sp) {
				d.forward(i)
			}
		}
		// A datagram the kernel refuses is lost, as on a lossy link to
		// the honeypot; the rest of the batch still goes.
		_, _ = d.flush(b.upstream)
	}
}

// admit decodes one datagram into pkt and accounts its outcome. For a
// packet the border forwards it stamps the ingress link into the
// datagram in place and returns true.
func (b *Border) admit(pkt *Packet, buf []byte, sp *trace.Span) bool {
	if err := pkt.decode(buf); err != nil {
		b.mu.Lock()
		m := b.packets
		b.mu.Unlock()
		if m != nil {
			m.With("malformed").Inc()
		}
		sp.Count("malformed", 1)
		return false
	}
	b.mu.Lock()
	link, ok := b.linkOf[pkt.TrueSrcAS]
	if !ok {
		b.dropped++
	}
	filter := b.filter
	m := b.packets
	b.mu.Unlock()
	if !ok {
		if m != nil {
			m.With("dropped").Inc()
		}
		sp.Count("dropped", 1)
		return false
	}
	if filter != nil && filter(pkt) {
		b.mu.Lock()
		b.filtered++
		b.mu.Unlock()
		if m != nil {
			m.With("filtered").Inc()
		}
		sp.Count("filtered", 1)
		return false
	}
	if m != nil {
		m.With("forwarded").Inc()
	}
	sp.Count("forwarded", 1)
	// decode accepted exactly headerLen+len(Payload) bytes with an IPv4
	// source, so the datagram is Marshal's encoding of pkt: stamping the
	// link byte in place is the re-encode.
	buf[5] = link
	return true
}
