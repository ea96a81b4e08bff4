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
	// truth. No tap in the program sets it: the honeypot tap reports 0,
	// because the honeypot never learns true sources, which is the whole
	// reason the paper's technique exists. Only code that builds events
	// by hand from the attacker wire format does (bench/, tests, the
	// sharded-ingest demo's ingest API), and shard routing still keys on
	// it; fencing it off the attribution path is ROADMAP aim 3(a).
	TrueSrcAS uint32
	// SpoofedSrc is the forged source (victim) address.
	SpoofedSrc netip.Addr
	// WireLen is the packet's on-the-wire size in bytes.
	WireLen int
	// Service is the recognized amplification protocol, when the
	// honeypot runs protocol emulation ("" otherwise).
	Service string
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
