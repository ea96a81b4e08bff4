package peering

import (
	"fmt"
	"reflect"
	"testing"

	"spooftrack/internal/bgp"
)

func TestBreakerTripsAndCoolsDown(t *testing.T) {
	h := NewLinkHealth(3, 3, 4)
	for i := 0; i < 2; i++ {
		h.ReportFailure(0)
		if h.IsQuarantined(0) {
			t.Fatalf("quarantined after %d failures, threshold 3", i+1)
		}
	}
	h.ReportFailure(0)
	if !h.IsQuarantined(0) {
		t.Fatal("3 consecutive failures must trip the breaker")
	}
	if got := h.Quarantined(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Quarantined = %v, want [0]", got)
	}
	// Activity on other links advances the tick; after the cooldown the
	// breaker goes half-open (schedulable again).
	for i := 0; i < 4; i++ {
		h.ReportSuccess(1)
	}
	if h.IsQuarantined(0) {
		t.Fatal("breaker must go half-open after the cooldown")
	}
	// A successful half-open trial closes it.
	h.ReportSuccess(0)
	snap := h.Snapshot()
	if snap[0].State != "closed" {
		t.Fatalf("state after trial success = %s, want closed", snap[0].State)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	h := NewLinkHealth(2, 2, 2)
	h.ReportFailure(1)
	h.ReportFailure(1)
	if !h.IsQuarantined(1) {
		t.Fatal("breaker should be open")
	}
	h.ReportSuccess(0)
	h.ReportSuccess(0) // cooldown elapses → half-open
	if h.IsQuarantined(1) {
		t.Fatal("breaker should be half-open")
	}
	h.ReportFailure(1)
	if !h.IsQuarantined(1) {
		t.Fatal("failed half-open trial must re-open the breaker")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	h := NewLinkHealth(1, 3, 4)
	h.ReportFailure(0)
	h.ReportFailure(0)
	h.ReportSuccess(0)
	h.ReportFailure(0)
	h.ReportFailure(0)
	if h.IsQuarantined(0) {
		t.Fatal("interleaved success must reset the consecutive-failure streak")
	}
	st := h.Snapshot()[0]
	if st.Failures != 4 || st.Successes != 1 {
		t.Fatalf("counts = %+v", st)
	}
}

func TestBreakerOutOfRangeLinkIgnored(t *testing.T) {
	h := NewLinkHealth(2, 1, 1)
	h.ReportFailure(9)
	h.ReportSuccess(bgp.NoLink)
	if h.IsQuarantined(9) || len(h.Quarantined()) != 0 {
		t.Fatal("out-of-range links must be ignored")
	}
}

// scriptedHook fails every attempt below failUntil, flapping the listed
// links each time.
type scriptedHook struct {
	failUntil int
	flap      []bgp.LinkID
	calls     int
}

func (s *scriptedHook) Deploy(cfgKey string, attempt int) ([]bgp.LinkID, error) {
	s.calls++
	if attempt < s.failUntil {
		return s.flap, fmt.Errorf("scripted failure (attempt %d)", attempt)
	}
	return nil, nil
}

func TestPropagateAttemptMatchesPropagate(t *testing.T) {
	p := platformForTest(t, 800)
	cfg := bgp.Config{Anns: []bgp.Announcement{{Link: 0}, {Link: 2}}}
	want, err := p.Propagate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No hook installed: identical outcome, cached or not.
	for _, noCache := range []bool{false, true} {
		got, err := p.PropagateAttempt(cfg, 0, noCache, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Catchments(), got.Catchments()) {
			t.Fatalf("PropagateAttempt(noCache=%v) diverged from Propagate", noCache)
		}
	}
	// Hook installed and succeeding: still identical.
	p.SetFaultHook(&scriptedHook{})
	got, err := p.PropagateAttempt(cfg, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Catchments(), got.Catchments()) {
		t.Fatal("PropagateAttempt with clean hook diverged from Propagate")
	}
}

func TestPropagateAttemptFeedsBreaker(t *testing.T) {
	p := platformForTest(t, 800)
	hook := &scriptedHook{failUntil: DefaultBreakerThreshold, flap: []bgp.LinkID{1}}
	p.SetFaultHook(hook)
	cfg := bgp.Config{Anns: []bgp.Announcement{{Link: 0}}}
	var lastErr error
	for attempt := 0; attempt < DefaultBreakerThreshold; attempt++ {
		if _, lastErr = p.PropagateAttempt(cfg, attempt, false, nil); lastErr == nil {
			t.Fatalf("attempt %d should have failed", attempt)
		}
	}
	// Link 1 flapped and link 0 failed on every attempt: both tripped.
	if !p.Health().IsQuarantined(0) || !p.Health().IsQuarantined(1) {
		t.Fatalf("links 0 and 1 should be quarantined: %+v", p.Health().Snapshot())
	}
	// The retry that finally lands succeeds and credits link 0.
	if _, err := p.PropagateAttempt(cfg, DefaultBreakerThreshold, false, nil); err != nil {
		t.Fatal(err)
	}
	st := p.Health().Snapshot()[0]
	if st.Successes != 1 || st.ConsecFails != 0 {
		t.Fatalf("link 0 after success: %+v", st)
	}
	if hook.calls != DefaultBreakerThreshold+1 {
		t.Fatalf("hook called %d times", hook.calls)
	}
}
