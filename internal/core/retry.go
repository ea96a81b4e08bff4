package core

import (
	"time"

	"spooftrack/internal/fault"
	"spooftrack/internal/measure"
)

// DefaultRetryPolicy is the schedule a campaign under a fault profile
// runs: 4 attempts per configuration and phase, 100ms→2s exponential
// backoff with ±25% jitter.
func DefaultRetryPolicy() fault.Retry {
	return fault.Retry{
		MaxAttempts: 4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Jitter:      0.25,
	}
}

// MeasureFaultHook injects measurement faults into a campaign: Measure
// is consulted once per measurement attempt of configuration cfgIdx and
// returns non-nil when the attempt is lost (probe batch lost, collector
// session down). fault.Injector implements it.
type MeasureFaultHook interface {
	Measure(cfgIdx, attempt int) error
}

// MeasureMasker optionally degrades a successful measurement in place
// (partial catchment visibility): Mask hides sources and returns how
// many it hid. A MeasureFaultHook that also implements MeasureMasker is
// applied after each successful measurement. fault.Injector implements
// it.
type MeasureMasker interface {
	Mask(cfgIdx int, m *measure.CatchmentMeasurement) int
}
