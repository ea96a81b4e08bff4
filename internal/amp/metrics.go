package amp

import (
	"strconv"

	"spooftrack/internal/metrics"
)

// linkLabels pre-renders every possible ingress-link label (LinkID is a
// uint8 on the wire), so per-packet vector lookups never format.
var linkLabels [256]string

func init() {
	for i := range linkLabels {
		linkLabels[i] = strconv.Itoa(i)
	}
}

// hpMetrics is the honeypot's labeled instrumentation, resolved once at
// SetMetrics so the packet path only does seen-label-set vector lookups
// (zero allocations).
type hpMetrics struct {
	linkPkts  *metrics.CounterVec // amp_honeypot_packets_total{link}
	linkBytes *metrics.CounterVec // amp_honeypot_bytes_total{link}
	requests  *metrics.CounterVec // amp_honeypot_requests_total{outcome}
}

func newHPMetrics(reg *metrics.Registry) *hpMetrics {
	return &hpMetrics{
		linkPkts:  reg.CounterVec("amp_honeypot_packets_total", "link"),
		linkBytes: reg.CounterVec("amp_honeypot_bytes_total", "link"),
		requests:  reg.CounterVec("amp_honeypot_requests_total", "outcome"),
	}
}

// SetMetrics wires the honeypot's accounting into a metrics registry as
// labeled vectors: per-ingress-link packet/byte counters (the paper's
// volume signal, now scrapeable per dimension instead of name-mangled)
// and per-outcome request counters (accepted, malformed). Call before traffic arrives; nil detaches.
func (h *Honeypot) SetMetrics(reg *metrics.Registry) {
	var m *hpMetrics
	if reg != nil {
		m = newHPMetrics(reg)
	}
	h.mu.Lock()
	h.metrics = m
	h.mu.Unlock()
}

// SetMetrics wires the border's packet accounting into a metrics
// registry as amp_border_packets_total{outcome} (forwarded, dropped,
// filtered, malformed). The watchdog's drop-rate SLOs read it. Nil
// detaches.
func (b *Border) SetMetrics(reg *metrics.Registry) {
	var m *metrics.CounterVec
	if reg != nil {
		m = reg.CounterVec("amp_border_packets_total", "outcome")
	}
	b.mu.Lock()
	b.packets = m
	b.mu.Unlock()
}
