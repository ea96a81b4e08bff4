package amp

import (
	"net"
	"sync"

	"spooftrack/internal/trace"
)

// Border is the origin network's edge: it receives attack traffic,
// resolves each packet's true source AS to the peering link that
// traffic currently enters on (the catchment under the deployed
// configuration), stamps the link into the overlay header, and forwards
// to the honeypot. This is the one signal the paper's whole technique
// builds on — the ingress peering link.
type Border struct {
	conn     net.PacketConn
	upstream *net.UDPAddr
	wg       sync.WaitGroup

	mu sync.Mutex
	// linkOf maps a true source AS number to its current ingress link.
	linkOf map[uint32]uint8
	// dropped counts packets from ASes with no route (no catchment).
	dropped int64
	// filter, when set, drops packets it returns true for (e.g., a
	// flowspec table installed after localization). It runs before
	// forwarding and must be safe for concurrent use.
	filter func(*Packet) bool
	// filtered counts packets dropped by the filter.
	filtered int64
	// metrics, when set, receives labeled per-outcome and per-link
	// counters for every packet.
	metrics *borderMetrics
}

// NewBorder starts a border router on addr forwarding to the honeypot
// at upstream. linkOf is the initial catchment table (true source ASN ->
// peering link).
func NewBorder(addr string, upstream *net.UDPAddr, linkOf map[uint32]uint8) (*Border, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	b := &Border{conn: conn, upstream: upstream, linkOf: copyTable(linkOf)}
	b.wg.Add(1)
	go b.serve()
	return b, nil
}

func copyTable(t map[uint32]uint8) map[uint32]uint8 {
	out := make(map[uint32]uint8, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// Addr returns the border's listening address.
func (b *Border) Addr() net.Addr { return b.conn.LocalAddr() }

// SetCatchments atomically replaces the catchment table — the runtime
// equivalent of a new announcement configuration converging.
func (b *Border) SetCatchments(linkOf map[uint32]uint8) {
	b.mu.Lock()
	b.linkOf = copyTable(linkOf)
	b.mu.Unlock()
}

// Dropped returns the number of packets with no catchment entry.
func (b *Border) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// SetFilter installs (or clears, with nil) the drop filter — the data
// path a disseminated flowspec rule set takes effect through.
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

func (b *Border) serve() {
	defer b.wg.Done()
	// One span covers the serve loop's lifetime; per-packet outcomes are
	// its counters (drop/filter/forward).
	sp := trace.Start("amp.border.serve")
	defer sp.End()
	buf := make([]byte, 2048)
	for {
		n, _, err := b.conn.ReadFrom(buf)
		if err != nil {
			return
		}
		pkt, err := Unmarshal(buf[:n])
		if err != nil || pkt.Type != TypeRequest {
			b.mu.Lock()
			m := b.metrics
			b.mu.Unlock()
			if m != nil {
				m.packets.With("malformed").Inc()
			}
			continue
		}
		b.mu.Lock()
		link, ok := b.linkOf[pkt.TrueSrcAS]
		if !ok {
			b.dropped++
		}
		filter := b.filter
		m := b.metrics
		b.mu.Unlock()
		if !ok {
			if m != nil {
				m.packets.With("dropped").Inc()
			}
			sp.Count("dropped", 1)
			continue
		}
		if filter != nil && filter(pkt) {
			b.mu.Lock()
			b.filtered++
			b.mu.Unlock()
			if m != nil {
				m.packets.With("filtered").Inc()
			}
			sp.Count("filtered", 1)
			continue
		}
		pkt.IngressLink = link
		if m != nil {
			m.packets.With("forwarded").Inc()
			m.linkPkts.With(linkLabels[link]).Inc()
		}
		sp.Count("forwarded", 1)
		if data, err := pkt.Marshal(); err == nil {
			_, _ = b.conn.WriteTo(data, b.upstream)
		}
	}
}
