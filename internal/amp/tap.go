package amp

import (
	"net/netip"
	"time"
)

// Event is one per-packet observation exported through an event tap.
// Taps are how live consumers (the streaming attribution pipeline in
// internal/stream) see traffic without touching the aggregate
// accounting the batch pipeline reads.
type Event struct {
	// Time is when the packet was processed.
	Time time.Time
	// IngressLink is the peering link the packet was stamped with
	// (LinkUnset if the border had not stamped it).
	IngressLink uint8
	// TrueSrcAS is the packet's actual origin AS — simulator ground
	// truth. Nothing on the origin side reads it: no tap sets it (the
	// honeypot reports 0, because it never learns true sources, which is
	// the whole reason the paper's technique exists), and shards route on
	// FlowKey. It stays only because bench/ writes it (ROADMAP item 29).
	TrueSrcAS uint32
	// SpoofedSrc is the forged source (victim) address.
	SpoofedSrc netip.Addr
	// WireLen is the packet's on-the-wire size in bytes.
	WireLen int
}

// FlowKey is FNV-1a over what the border sees of the packet: the spoofed
// (victim) address and the ingress link. Shard routing and an intake's
// counter-shard pick both key on it, so one flow is counted in one place.
func (e *Event) FlowKey() uint32 {
	h := uint32(2166136261)
	if e.SpoofedSrc.Is4() {
		for _, c := range e.SpoofedSrc.As4() {
			h = (h ^ uint32(c)) * 16777619
		}
	}
	return (h ^ uint32(e.IngressLink)) * 16777619
}

// Tap receives per-packet events. Taps run synchronously on the serve
// goroutine, outside the component's lock: a tap that blocks applies
// backpressure to packet processing rather than losing events, so it
// must be fast or hand off quickly.
type Tap func(Event)

// SetTap installs (or clears, with nil) the honeypot's per-packet event
// tap. It observes every accepted request — malformed packets are not
// reported — and does not alter the aggregate accounting.
func (h *Honeypot) SetTap(t Tap) {
	h.mu.Lock()
	h.tap = t
	h.mu.Unlock()
}
