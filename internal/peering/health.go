package peering

import (
	"sync"

	"spooftrack/internal/bgp"
)

// BreakerState is a per-link circuit-breaker state.
type BreakerState int

const (
	// BreakerClosed: the link is healthy and schedulable.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the link is quarantined — recent deployments through
	// it flapped or failed repeatedly; greedy planning routes around it.
	BreakerOpen
	// BreakerHalfOpen: the quarantine cooldown elapsed; the next
	// deployment through the link is a trial. Success closes the
	// breaker, failure re-opens it.
	BreakerHalfOpen
)

// String names the state as used in metrics labels and /faults output.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

type linkState struct {
	state       BreakerState
	consecFails int
	openedAt    int64 // report tick when the breaker last opened

	failures  int64
	successes int64
}

// LinkHealth tracks per-peering-link deployment health and quarantines
// flapping links with a consecutive-failure circuit breaker. Time is the
// global report tick — every reported outcome advances it — so
// quarantine expiry is driven by deployment activity, not wall clock,
// and chaos runs stay deterministic. The breaker never alters campaign
// results: it is consulted only by scheduling (sched masks, the stream
// controller) and surfaced on /faults.
type LinkHealth struct {
	mu        sync.Mutex
	threshold int
	cooldown  int64
	tick      int64
	links     []linkState

	// onTransition, if set, observes every breaker state change (the
	// provenance ledger's quarantine hook). Called with h.mu held — it
	// must be fast and must not call back into LinkHealth.
	onTransition func(link bgp.LinkID, from, to BreakerState)
}

// DefaultBreakerThreshold trips a link's breaker after this many
// consecutive failed or flapped deployments.
const DefaultBreakerThreshold = 3

// DefaultBreakerCooldown is how many report ticks an open breaker waits
// before allowing a half-open trial.
const DefaultBreakerCooldown = 16

// NewLinkHealth builds a tracker for numLinks peering links. A
// threshold or cooldown ≤ 0 takes the default.
func NewLinkHealth(numLinks, threshold int, cooldown int64) *LinkHealth {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &LinkHealth{
		threshold: threshold,
		cooldown:  cooldown,
		links:     make([]linkState, numLinks),
	}
}

// SetTransitionHook registers fn to observe every breaker state change
// (link, previous state, new state) — the decision-provenance ledger's
// quarantine evidence channel. fn runs with the health lock held and
// must not call back into LinkHealth. Call before reports start; a nil
// fn clears the hook.
func (h *LinkHealth) SetTransitionHook(fn func(link bgp.LinkID, from, to BreakerState)) {
	h.mu.Lock()
	h.onTransition = fn
	h.mu.Unlock()
}

func (h *LinkHealth) transition(link bgp.LinkID, st *linkState, to BreakerState) {
	from := st.state
	st.state = to
	if to == BreakerOpen {
		st.openedAt = h.tick
	}
	if h.onTransition != nil {
		h.onTransition(link, from, to)
	}
}

// advanceLocked bumps the report tick and moves cooled-down open
// breakers to half-open.
func (h *LinkHealth) advanceLocked() {
	h.tick++
	for i := range h.links {
		st := &h.links[i]
		if st.state == BreakerOpen && h.tick-st.openedAt >= h.cooldown {
			h.transition(bgp.LinkID(i), st, BreakerHalfOpen)
		}
	}
}

// ReportFailure records a failed or flapped deployment through link l:
// consecutive failures trip the breaker open; a failed half-open trial
// re-opens it.
func (h *LinkHealth) ReportFailure(l bgp.LinkID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(l) < 0 || int(l) >= len(h.links) {
		return
	}
	h.advanceLocked()
	st := &h.links[l]
	st.failures++
	st.consecFails++
	switch st.state {
	case BreakerClosed:
		if st.consecFails >= h.threshold {
			h.transition(l, st, BreakerOpen)
		}
	case BreakerHalfOpen:
		h.transition(l, st, BreakerOpen)
	}
}

// ReportSuccess records a clean deployment through link l: it resets
// the failure streak and closes a half-open breaker.
func (h *LinkHealth) ReportSuccess(l bgp.LinkID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(l) < 0 || int(l) >= len(h.links) {
		return
	}
	h.advanceLocked()
	st := &h.links[l]
	st.successes++
	st.consecFails = 0
	if st.state == BreakerHalfOpen {
		h.transition(l, st, BreakerClosed)
	}
}

// IsQuarantined reports whether link l's breaker is open. Half-open
// links are schedulable (that is the trial).
func (h *LinkHealth) IsQuarantined(l bgp.LinkID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(l) < 0 || int(l) >= len(h.links) {
		return false
	}
	return h.links[l].state == BreakerOpen
}

// Quarantined returns the links whose breakers are currently open.
func (h *LinkHealth) Quarantined() []bgp.LinkID {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []bgp.LinkID
	for i := range h.links {
		if h.links[i].state == BreakerOpen {
			out = append(out, bgp.LinkID(i))
		}
	}
	return out
}

// LinkHealthStat is one link's point-in-time breaker state, shaped for
// the daemon's /faults endpoint.
type LinkHealthStat struct {
	Link        int    `json:"link"`
	State       string `json:"state"`
	ConsecFails int    `json:"consecutive_failures,omitempty"`
	Failures    int64  `json:"failures"`
	Successes   int64  `json:"successes"`
}

// Snapshot returns every link's breaker state.
func (h *LinkHealth) Snapshot() []LinkHealthStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]LinkHealthStat, len(h.links))
	for i := range h.links {
		st := &h.links[i]
		out[i] = LinkHealthStat{
			Link:        i,
			State:       st.state.String(),
			ConsecFails: st.consecFails,
			Failures:    st.failures,
			Successes:   st.successes,
		}
	}
	return out
}
