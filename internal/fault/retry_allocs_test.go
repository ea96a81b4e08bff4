//go:build !race

package fault

import (
	"context"
	"testing"
)

// Not under the race detector, whose instrumentation allocates.

// TestRetryDoAllocs: a call of Do whose functions do not escape
// allocates nothing, retries and all (a campaign calls it once per
// configuration and phase, the shard controller once per RPC).
func TestRetryDoAllocs(t *testing.T) {
	ctx := context.Background()
	r := Retry{MaxAttempts: 4}
	if n := testing.AllocsPerRun(100, func() {
		// Both functions capture locals, as the campaign's and the
		// controller's do: were either to escape, it would allocate.
		fails, retries := 2, 0
		tries, err := r.Do(ctx, 7, nil, func(attempt int) error {
			if attempt < fails {
				return errFlaky
			}
			return nil
		}, func(int, error) bool {
			retries++
			return true
		})
		if tries != 3 || err != nil || retries != 2 {
			t.Fatalf("tries %d, err %v, retries %d", tries, err, retries)
		}
	}); n > 0 {
		t.Errorf("Do: %.0f allocs per call, want 0", n)
	}
}
