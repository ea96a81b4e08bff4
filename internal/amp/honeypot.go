package amp

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"time"

	"spooftrack/internal/trace"
)

// HoneypotConfig tunes the honeypot's emulated amplification service.
type HoneypotConfig struct {
	// AmpFactor is the response-to-request size ratio of the emulated
	// vulnerable service (e.g., NTP monlist reaches dozens).
	AmpFactor int
	// MaxResponsesPerVictimPerSec rate-limits reflection per victim, as
	// AmpPot does so honeypots attract attacks without contributing
	// meaningful firepower.
	MaxResponsesPerVictimPerSec int
	// Reflect resolves a victim (spoofed source) address to the UDP
	// endpoint its traffic should be reflected to, or nil to drop.
	// Production honeypots send straight to the spoofed address; tests
	// map victims onto loopback listeners.
	Reflect func(victim netip.Addr) *net.UDPAddr
	// Services, when non-empty, switches the honeypot to protocol
	// emulation: requests are recognized per protocol (DNS / NTP /
	// SSDP) and answered with that protocol's amplified response;
	// unrecognized payloads are accounted but not reflected. Empty
	// means generic AmpFactor amplification.
	Services []Service
}

// DefaultHoneypotConfig emulates a monlist-style amplifier with AmpPot's
// conservative rate limit.
func DefaultHoneypotConfig() HoneypotConfig {
	return HoneypotConfig{AmpFactor: 20, MaxResponsesPerVictimPerSec: 10}
}

// LinkStats is the honeypot's per-ingress-link accounting — the volume
// signal §III-C feeds into cluster attribution.
type LinkStats struct {
	Packets int64
	Bytes   int64
}

// Honeypot is an AmpPot-style UDP service. Create with NewHoneypot,
// stop with Close. Safe for concurrent use.
type Honeypot struct {
	cfg  HoneypotConfig
	conn net.PacketConn
	wg   sync.WaitGroup

	mu         sync.Mutex
	tap        Tap
	metrics    *hpMetrics
	byLink     map[uint8]*LinkStats
	malformed  int64
	reflected  int64
	rateWindow map[netip.Addr]*rateState
}

type rateState struct {
	windowStart time.Time
	sent        int
}

// NewHoneypot starts a honeypot listening on addr (e.g.,
// "127.0.0.1:0"). The returned honeypot is already serving.
func NewHoneypot(addr string, cfg HoneypotConfig) (*Honeypot, error) {
	if cfg.AmpFactor < 1 {
		return nil, errors.New("amp: AmpFactor must be at least 1")
	}
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	h := &Honeypot{
		cfg:        cfg,
		conn:       conn,
		byLink:     make(map[uint8]*LinkStats),
		rateWindow: make(map[netip.Addr]*rateState),
	}
	h.wg.Add(1)
	go h.serve()
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

func (h *Honeypot) serve() {
	defer h.wg.Done()
	// One span covers the serve loop's lifetime; per-request outcomes are
	// its counters (malformed/accepted/reflected and tap fan-out).
	sp := trace.Start("amp.honeypot.serve")
	defer sp.End()
	buf := make([]byte, 2048)
	for {
		n, _, err := h.conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		pkt, err := Unmarshal(buf[:n])
		if err != nil || pkt.Type != TypeRequest {
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
		h.handleRequest(pkt, n, sp)
	}
}

func (h *Honeypot) handleRequest(pkt *Packet, wireLen int, sp *trace.Span) {
	// Protocol emulation mode: recognize the request first.
	var svc Service
	if len(h.cfg.Services) > 0 {
		var recognized bool
		svc, recognized = RecognizeService(h.cfg.Services, pkt.Payload)
		if !recognized {
			h.mu.Lock()
			h.malformed++
			m := h.metrics
			h.mu.Unlock()
			if m != nil {
				m.requests.With("malformed").Inc()
			}
			sp.Count("malformed", 1)
			return
		}
	}
	sp.Count("accepted", 1)

	h.mu.Lock()
	ls, ok := h.byLink[pkt.IngressLink]
	if !ok {
		ls = &LinkStats{}
		h.byLink[pkt.IngressLink] = ls
	}
	ls.Packets++
	ls.Bytes += int64(wireLen)
	allowed := h.allowReflectLocked(pkt.SpoofedSrc)
	tap := h.tap
	m := h.metrics
	h.mu.Unlock()

	if m != nil {
		m.requests.With("accepted").Inc()
		m.linkPkts.With(linkLabels[pkt.IngressLink]).Inc()
		m.linkBytes.With(linkLabels[pkt.IngressLink]).Add(int64(wireLen))
		if svc != nil {
			m.service.With(svc.Name()).Inc()
		}
		if !allowed {
			m.requests.With("rate_limited").Inc()
		}
	}

	if tap != nil {
		ev := Event{
			Time:        time.Now(),
			IngressLink: pkt.IngressLink,
			SpoofedSrc:  pkt.SpoofedSrc,
			WireLen:     wireLen,
		}
		if svc != nil {
			ev.Service = svc.Name()
		}
		tap(ev)
		sp.Count("tap_events", 1)
	}

	if !allowed || h.cfg.Reflect == nil {
		return
	}
	dst := h.cfg.Reflect(pkt.SpoofedSrc)
	if dst == nil {
		return
	}
	var respPayload []byte
	if svc != nil {
		respPayload = svc.Respond(pkt.Payload, maxPayload)
	} else {
		respPayload = make([]byte, min(len(pkt.Payload)*h.cfg.AmpFactor, maxPayload))
	}
	resp := &Packet{
		Type:        TypeResponse,
		IngressLink: pkt.IngressLink,
		TrueSrcAS:   0, // honeypot does not know the true source
		SpoofedSrc:  pkt.SpoofedSrc,
		Payload:     respPayload,
	}
	if data, err := resp.Marshal(); err == nil {
		if _, err := h.conn.WriteTo(data, dst); err == nil {
			h.mu.Lock()
			h.reflected++
			h.mu.Unlock()
			if m != nil {
				m.requests.With("reflected").Inc()
			}
			sp.Count("reflected", 1)
		}
	}
}

// allowReflectLocked implements the per-victim rate limit using a fixed
// one-second window. Caller holds h.mu.
func (h *Honeypot) allowReflectLocked(victim netip.Addr) bool {
	limit := h.cfg.MaxResponsesPerVictimPerSec
	if limit <= 0 {
		return false
	}
	now := time.Now()
	st, ok := h.rateWindow[victim]
	if !ok || now.Sub(st.windowStart) >= time.Second {
		h.rateWindow[victim] = &rateState{windowStart: now, sent: 1}
		return true
	}
	if st.sent >= limit {
		return false
	}
	st.sent++
	return true
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

// Reflected returns how many amplified responses were sent.
func (h *Honeypot) Reflected() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reflected
}
