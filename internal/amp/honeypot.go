package amp

import (
	"net"
	"sync"
	"time"

	"spooftrack/internal/trace"
)

// HoneypotConfig configures a honeypot. It has no fields: the
// honeypot observes and accounts requests and never answers them.
type HoneypotConfig struct{}

// DefaultHoneypotConfig returns the honeypot's configuration.
func DefaultHoneypotConfig() HoneypotConfig { return HoneypotConfig{} }

// LinkStats is the honeypot's per-ingress-link accounting — the volume
// signal §III-C feeds into cluster attribution.
type LinkStats struct {
	Packets int64
	Bytes   int64
}

// Honeypot is an AmpPot-style UDP listener on the observation side:
// it accounts each spoofed request per ingress link and taps it, and
// sends nothing back. Create with NewHoneypot, stop with Close. Safe
// for concurrent use.
type Honeypot struct {
	conn *net.UDPConn
	wg   sync.WaitGroup

	mu        sync.Mutex
	tap       Tap
	metrics   *hpMetrics
	byLink    map[uint8]*LinkStats
	malformed int64
}

// NewHoneypot starts a honeypot listening on addr (e.g.,
// "127.0.0.1:0"). The returned honeypot is already serving.
func NewHoneypot(addr string, _ HoneypotConfig) (*Honeypot, error) {
	conn, err := listenUDP(addr)
	if err != nil {
		return nil, err
	}
	r, err := newReceiver(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	h := &Honeypot{
		conn:   conn,
		byLink: make(map[uint8]*LinkStats),
	}
	h.wg.Add(1)
	go h.serve(r)
	return h, nil
}

// Addr returns the honeypot's listening address.
func (h *Honeypot) Addr() net.Addr { return h.conn.LocalAddr() }

// Close stops the honeypot and waits for the serve loop to exit.
func (h *Honeypot) Close() error {
	err := h.conn.Close()
	h.wg.Wait()
	return err
}

func (h *Honeypot) serve(r *receiver) {
	defer h.wg.Done()
	// One span covers the serve loop's lifetime; its counters are the
	// reads and each request's outcome (malformed/accepted and tap
	// fan-out).
	sp := trace.Start("amp.honeypot.serve")
	defer sp.End()
	// One packet and one read buffer for the loop's lifetime: an
	// accepted request allocates nothing.
	var pkt Packet
	for {
		n, err := r.read()
		if err != nil {
			return // closed
		}
		sp.Count("reads", 1)
		for i := 0; i < n; i++ {
			buf := r.datagram(i)
			if err := pkt.decode(buf); err != nil {
				h.mu.Lock()
				h.malformed++
				m := h.metrics
				h.mu.Unlock()
				if m != nil {
					m.requests.With("malformed").Inc()
				}
				sp.Count("malformed", 1)
				continue
			}
			h.handleRequest(&pkt, len(buf), sp)
		}
	}
}

// handleRequest accounts one decoded request and taps it.
func (h *Honeypot) handleRequest(pkt *Packet, wireLen int, sp *trace.Span) {
	sp.Count("accepted", 1)

	h.mu.Lock()
	ls, ok := h.byLink[pkt.IngressLink]
	if !ok {
		ls = &LinkStats{}
		h.byLink[pkt.IngressLink] = ls
	}
	ls.Packets++
	ls.Bytes += int64(wireLen)
	tap := h.tap
	m := h.metrics
	h.mu.Unlock()

	if m != nil {
		m.requests.With("accepted").Inc()
		m.linkPkts.With(linkLabels[pkt.IngressLink]).Inc()
		m.linkBytes.With(linkLabels[pkt.IngressLink]).Add(int64(wireLen))
	}

	if tap != nil {
		tap(Event{
			Time:        time.Now(),
			IngressLink: pkt.IngressLink,
			SpoofedSrc:  pkt.SpoofedSrc,
			WireLen:     wireLen,
		})
		sp.Count("tap_events", 1)
	}
}

// VolumeByLink returns a snapshot of the per-ingress-link accounting.
func (h *Honeypot) VolumeByLink() map[uint8]LinkStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[uint8]LinkStats, len(h.byLink))
	for l, s := range h.byLink {
		out[l] = *s
	}
	return out
}

// Malformed returns the count of dropped undecodable packets.
func (h *Honeypot) Malformed() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.malformed
}
