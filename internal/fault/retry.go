package fault

import (
	"context"
	"time"
)

// Retry is the one retry schedule every faulted step runs under:
// deploying and measuring a campaign configuration (core.RunCampaign)
// and each RPC the shard controller sends. The zero Retry tries once.
type Retry struct {
	// MaxAttempts is the total number of tries; values ≤ 1 mean one.
	MaxAttempts int
	// BaseBackoff is the wait after the first failed try; each further
	// one doubles it, capped at MaxBackoff (zero: no cap).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter spreads each wait by ±Jitter of itself. The spread is a
	// hash of (site, attempt), not a random draw, so a retried run stays
	// bit-reproducible.
	Jitter float64
}

// Backoff returns the wait after failed try number attempt (0-based) at
// site: exponential in the attempt, capped, and spread by the
// deterministic jitter of (site, attempt).
func (r Retry) Backoff(site, attempt int) time.Duration {
	d := r.BaseBackoff
	if d <= 0 {
		return 0
	}
	for i := 0; i < attempt && (r.MaxBackoff <= 0 || d < r.MaxBackoff); i++ {
		d *= 2
	}
	if r.MaxBackoff > 0 && d > r.MaxBackoff {
		d = r.MaxBackoff
	}
	if r.Jitter > 0 {
		// SplitMix64 over the site identity: same run, same waits.
		h := uint64(site)<<32 | uint64(attempt)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		u := float64(h>>11) / (1 << 53) // [0,1)
		d = time.Duration(float64(d) * (1 - r.Jitter + 2*r.Jitter*u))
	}
	return d
}

// Do calls try with attempt 0, 1, … until it returns nil or MaxAttempts
// tries are spent. After a failed try with tries left it asks again
// whether to go on — the caller records the retry there, or answers
// false for an error no retry can fix — and then waits Backoff(site,
// attempt). ctx is checked before every try and cuts a wait short; its
// error ends the loop. sleep, if non-nil, does the waiting instead (a
// seam that ignores ctx). Do returns the tries made and the last error;
// it allocates nothing unless it waits on a timer.
func (r Retry) Do(ctx context.Context, site int, sleep func(time.Duration),
	try func(attempt int) error, again func(attempt int, err error) bool) (int, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return attempt, err
		}
		err := try(attempt)
		if err == nil || attempt+1 >= r.MaxAttempts || !again(attempt, err) {
			return attempt + 1, err
		}
		if d := r.Backoff(site, attempt); sleep != nil {
			sleep(d)
		} else if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
		}
	}
}
