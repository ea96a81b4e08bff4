package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errFlaky = errors.New("flaky")

// TestRetryDo: Do tries until success or the budget is spent, asks
// again before every retry, stops on a veto, and waits the schedule's
// backoff between tries.
func TestRetryDo(t *testing.T) {
	r := Retry{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 3 * time.Millisecond}
	var slept []time.Duration
	sleep := func(d time.Duration) { slept = append(slept, d) }
	var asked []int
	again := func(attempt int, err error) bool {
		asked = append(asked, attempt)
		return true
	}

	tries, err := r.Do(context.Background(), 0, sleep, func(attempt int) error {
		if attempt < 2 {
			return errFlaky
		}
		return nil
	}, again)
	if tries != 3 || err != nil || len(asked) != 2 || len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Errorf("healed on try 3: tries %d, err %v, asked %v, slept %v", tries, err, asked, slept)
	}

	asked, slept = nil, nil
	tries, err = r.Do(context.Background(), 0, sleep, func(int) error { return errFlaky }, again)
	if tries != 4 || err != errFlaky || len(asked) != 3 || len(slept) != 3 || slept[2] != 3*time.Millisecond {
		t.Errorf("exhausted: tries %d, err %v, asked %v, slept %v", tries, err, asked, slept)
	}

	slept = nil
	tries, err = r.Do(context.Background(), 0, sleep, func(int) error { return errFlaky },
		func(int, error) bool { return false })
	if tries != 1 || err != errFlaky || len(slept) != 0 {
		t.Errorf("vetoed: tries %d, err %v, slept %v", tries, err, slept)
	}

	if tries, err := (Retry{}).Do(context.Background(), 0, sleep, func(int) error { return errFlaky }, again); tries != 1 || err != errFlaky {
		t.Errorf("zero schedule: tries %d, err %v, want one try", tries, err)
	}
}

// TestRetryDoCanceled: a canceled context cuts a timer wait short and
// ends the loop before the next try.
func TestRetryDoCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := Retry{MaxAttempts: 10, BaseBackoff: time.Hour}
	start := time.Now()
	tries, err := r.Do(ctx, 0, nil, func(int) error { return errFlaky },
		func(int, error) bool { cancel(); return true })
	if tries != 1 || !errors.Is(err, context.Canceled) {
		t.Errorf("tries %d, err %v; want 1 try and context.Canceled", tries, err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("the wait ignored cancellation (%v)", d)
	}
}
