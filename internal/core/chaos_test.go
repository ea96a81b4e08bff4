package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/fault"
	"spooftrack/internal/sched"
)

// chaosRetry is the retry schedule chaos tests run under: a generous
// attempt budget with zero backoff so the suite stays fast (a retrying
// campaign degrades on exhaustion, as the daemon's does).
func chaosRetry() fault.Retry {
	return fault.Retry{MaxAttempts: 8}
}

// truthBaseline runs a fault-free UseTruth campaign on a fresh world.
func truthBaseline(t *testing.T, seed uint64) (*Campaign, []sched.PlannedConfig) {
	t.Helper()
	w := smallWorld(t, seed)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.RunCampaign(plan, CampaignOptions{UseTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	return c, plan
}

// assertCoarsening fails unless every cluster of the faulty partition is
// a union of baseline clusters: sources the baseline keeps together, the
// faulty run must keep together (all-unknown rows never split, so a run
// that only *lost* information can only be coarser).
func assertCoarsening(t *testing.T, base, faulty *cluster.Partition) {
	t.Helper()
	if base.NumSources() != faulty.NumSources() {
		t.Fatalf("source counts differ: %d vs %d", base.NumSources(), faulty.NumSources())
	}
	// baseline cluster -> faulty cluster must be a function.
	img := make(map[int]int)
	for k := 0; k < base.NumSources(); k++ {
		b, f := base.ClusterOf(k), faulty.ClusterOf(k)
		if got, ok := img[b]; ok {
			if got != f {
				t.Fatalf("baseline cluster %d split by the faulty run (sources map to faulty clusters %d and %d)", b, got, f)
			}
		} else {
			img[b] = f
		}
	}
	if faulty.NumClusters() > base.NumClusters() {
		t.Fatalf("faulty run has more clusters (%d) than baseline (%d)", faulty.NumClusters(), base.NumClusters())
	}
}

// TestChaosProfilesConverge is the tentpole invariant: under every
// built-in scenario profile with retries enabled, a UseTruth campaign
// reaches the same clusters as the fault-free baseline — byte-identical
// Catchments and CatchmentTable when no configuration is permanently
// lost, a provable coarsening (superset clusters) when some are.
func TestChaosProfilesConverge(t *testing.T) {
	const seed = 42
	base, _ := truthBaseline(t, seed)
	for _, prof := range fault.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			prof.DeployLatency = 0 // keep the suite fast; latency is covered in fault's own tests
			w := smallWorld(t, seed)
			plan, err := w.DefaultPlan()
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.New(prof, 7, w.Platform.NumLinks())
			w.Platform.SetFaultHook(inj)
			c, err := w.RunCampaign(plan, CampaignOptions{
				UseTruth: true,
				Retry:    chaosRetry(),
			})
			if err != nil {
				t.Fatalf("campaign under %s did not survive: %v", prof.Name, err)
			}
			if !reflect.DeepEqual(base.Sources, c.Sources) {
				t.Fatal("sources diverged from fault-free baseline")
			}
			if len(c.Incomplete) == 0 {
				if !reflect.DeepEqual(base.Catchments, c.Catchments) {
					t.Fatal("no config lost, but catchment matrix diverged from fault-free baseline")
				}
				for _, cfg := range []int{0, len(plan) / 2, len(plan) - 1} {
					if !reflect.DeepEqual(base.CatchmentTable(cfg), c.CatchmentTable(cfg)) {
						t.Fatalf("CatchmentTable(%d) diverged", cfg)
					}
				}
				return
			}
			// Some configs permanently lost: their rows must be uniformly
			// unknown, every surviving row byte-identical, and the final
			// partition a coarsening of the baseline's.
			t.Logf("%s: %d/%d configs permanently lost", prof.Name, len(c.Incomplete), len(plan))
			for i := range plan {
				if c.IsIncomplete(i) {
					for k, l := range c.Catchments[i] {
						if l != bgp.NoLink {
							t.Fatalf("incomplete config %d has known catchment for source %d", i, k)
						}
					}
					if len(c.CatchmentTable(i)) != 0 {
						t.Fatalf("incomplete config %d has a non-empty catchment table", i)
					}
					continue
				}
				if !reflect.DeepEqual(base.Catchments[i], c.Catchments[i]) {
					t.Fatalf("surviving config %d diverged from baseline", i)
				}
			}
			assertCoarsening(t, base.FinalPartition(), c.FinalPartition())
		})
	}
}

// TestChaosDeterministic: the same profile and seed reproduce the same
// campaign bit-for-bit, at different parallelism settings.
func TestChaosDeterministic(t *testing.T) {
	prof, err := fault.ProfileByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	prof.DeployLatency = 0
	run := func(parallelism int) *Campaign {
		w := smallWorld(t, 7)
		plan, err := w.DefaultPlan()
		if err != nil {
			t.Fatal(err)
		}
		w.Platform.SetFaultHook(fault.New(prof, 99, w.Platform.NumLinks()))
		c, err := w.RunCampaign(plan, CampaignOptions{
			UseTruth:    true,
			Retry:       chaosRetry(),
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Incomplete, b.Incomplete) {
		t.Fatalf("incomplete sets diverged across parallelism: %v vs %v", a.Incomplete, b.Incomplete)
	}
	if !reflect.DeepEqual(a.Catchments, b.Catchments) {
		t.Fatal("catchment matrices diverged across parallelism")
	}
}

// dropHook permanently fails the deployment of configurations whose
// canonical keys it holds, and passes everything else through.
type dropHook struct{ keys map[string]bool }

func (d *dropHook) Deploy(cfgKey string, attempt int) ([]bgp.LinkID, error) {
	if d.keys[cfgKey] {
		return nil, fmt.Errorf("dropHook: config permanently down")
	}
	return nil, nil
}

func TestChaosForcedDropIsProvableSuperset(t *testing.T) {
	const seed = 11
	base, plan := truthBaseline(t, seed)
	w := smallWorld(t, seed)
	plan2, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	dropped := []int{3, len(plan2) / 2, len(plan2) - 1}
	hook := &dropHook{keys: map[string]bool{}}
	for _, i := range dropped {
		hook.keys[plan2[i].Config.Key()] = true
	}
	w.Platform.SetFaultHook(hook)
	c, err := w.RunCampaign(plan2, CampaignOptions{UseTruth: true, Retry: chaosRetry()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Incomplete, dropped) {
		t.Fatalf("Incomplete = %v, want %v", c.Incomplete, dropped)
	}
	for _, i := range dropped {
		if len(c.CatchmentTable(i)) != 0 {
			t.Fatalf("dropped config %d still has a catchment table", i)
		}
	}
	assertCoarsening(t, base.FinalPartition(), c.FinalPartition())
	if reflect.DeepEqual(plan, plan2) && c.FinalPartition().NumClusters() > base.FinalPartition().NumClusters() {
		t.Fatal("dropping configs must not create clusters")
	}
	// The baseline config permanently down is fatal: sources derive from it.
	w2 := smallWorld(t, seed)
	plan3, _ := w2.DefaultPlan()
	w2.Platform.SetFaultHook(&dropHook{keys: map[string]bool{plan3[0].Config.Key(): true}})
	if _, err := w2.RunCampaign(plan3, CampaignOptions{UseTruth: true, Retry: chaosRetry()}); err == nil {
		t.Fatal("losing the baseline config must fail the campaign")
	}
}

// TestChaosMeasuredPathByteIdentical: with measurement faults retried to
// success, the measured pipeline reproduces the fault-free measurements
// byte-for-byte (each retry consumes a pristine copy of the config's
// RNG).
func TestChaosMeasuredPathByteIdentical(t *testing.T) {
	const seed, nConfigs = 5, 20
	runMeasured := func(withFaults bool) *Campaign {
		w := smallWorld(t, seed)
		plan, err := w.DefaultPlan()
		if err != nil {
			t.Fatal(err)
		}
		plan = plan[:nConfigs]
		opts := CampaignOptions{}
		if withFaults {
			prof, err := fault.ProfileByName("slow-converge")
			if err != nil {
				t.Fatal(err)
			}
			prof.DeployLatency = 0
			inj := fault.New(prof, 13, w.Platform.NumLinks())
			w.Platform.SetFaultHook(inj)
			opts.MeasureFault = inj
			opts.Retry = fault.Retry{MaxAttempts: 12}
		}
		c, err := w.RunCampaign(plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	base, faulty := runMeasured(false), runMeasured(true)
	if len(faulty.Incomplete) != 0 {
		// Deterministic under the fixed seeds; 12 attempts at 25% loss
		// makes exhaustion essentially impossible.
		t.Fatalf("unexpected permanent losses: %v", faulty.Incomplete)
	}
	for i := range base.Measurements {
		if !reflect.DeepEqual(base.Measurements[i], faulty.Measurements[i]) {
			t.Fatalf("measurement %d diverged from fault-free baseline", i)
		}
	}
	if !reflect.DeepEqual(base.Catchments, faulty.Catchments) {
		t.Fatal("imputed catchments diverged")
	}
}

// TestChaosMeasuredPathDegrades: the feed-gap profile (feed gaps, probe
// loss, partial visibility) degrades measurements but the campaign still
// completes and localizes.
func TestChaosMeasuredPathDegrades(t *testing.T) {
	const seed, nConfigs = 5, 15
	w := smallWorld(t, seed)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	plan = plan[:nConfigs]
	prof, err := fault.ProfileByName("feed-gap")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(prof, 3, w.Platform.NumLinks())
	w.Platform.SetFaultHook(inj)
	c, err := w.RunCampaign(plan, CampaignOptions{
		MeasureFault: inj,
		Retry:        chaosRetry(),
	})
	if err != nil {
		t.Fatalf("feed-gap campaign did not survive: %v", err)
	}
	if len(c.Sources) == 0 {
		t.Fatal("no sources localized")
	}
	if c.FinalPartition().NumClusters() < 2 {
		t.Fatal("degraded campaign should still split the source space")
	}
	if inj.Count(fault.KindHidden) == 0 {
		t.Fatal("feed-gap profile should have masked some sources")
	}
}

// TestRetryPolicyBackoff: the default campaign schedule doubles from
// 100ms to its 2s cap, and spreads each wait by a deterministic ±25%
// that differs from configuration to configuration.
func TestRetryPolicyBackoff(t *testing.T) {
	p := DefaultRetryPolicy()
	for attempt, base := range []time.Duration{100, 200, 400, 800, 1600, 2000, 2000} {
		base *= time.Millisecond
		for cfg := 0; cfg < 16; cfg++ {
			d := p.Backoff(cfg, attempt)
			if d < base*3/4 || d > base*5/4 {
				t.Fatalf("Backoff(%d, %d) = %v, want %v ±25%%", cfg, attempt, d, base)
			}
			if p.Backoff(cfg, attempt) != d {
				t.Fatal("jitter must be deterministic")
			}
		}
	}
	if p.Backoff(1, 0) == p.Backoff(2, 0) {
		t.Fatal("jitter should vary across configs")
	}
	p.Jitter = 0
	if d := p.Backoff(0, 5); d != 2*time.Second {
		t.Fatalf("attempt 5 backoff = %v, want the 2s cap", d)
	}
	if (fault.Retry{}).Backoff(0, 3) != 0 {
		t.Fatal("zero schedule must not wait")
	}
}

// cancelHook cancels the campaign context during the n-th deployment,
// which itself succeeds.
type cancelHook struct {
	n, calls int
	cancel   context.CancelFunc
}

func (h *cancelHook) Deploy(string, int) ([]bgp.LinkID, error) {
	if h.calls++; h.calls == h.n {
		h.cancel()
	}
	return nil, nil
}

// TestCancelAfterLastDeploy: a context canceled once every deployment
// has succeeded does not fail a truth campaign, which has nothing left
// to do, but fails a measured one, whose measurements it cuts off.
func TestCancelAfterLastDeploy(t *testing.T) {
	for _, useTruth := range []bool{true, false} {
		w := smallWorld(t, 9)
		plan, err := w.DefaultPlan()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		w.Platform.SetFaultHook(&cancelHook{n: len(plan), cancel: cancel})
		c, err := w.RunCampaign(plan, CampaignOptions{
			UseTruth:    useTruth,
			Ctx:         ctx,
			Parallelism: 1,
			Retry:       fault.Retry{MaxAttempts: 2},
		})
		cancel()
		switch {
		case useTruth && err != nil:
			t.Errorf("truth campaign: %v; want the finished campaign", err)
		case useTruth && len(c.Incomplete) > 0:
			t.Errorf("truth campaign: configurations %v incomplete", c.Incomplete)
		case !useTruth && !errors.Is(err, context.Canceled):
			t.Errorf("measured campaign: err %v, want context.Canceled", err)
		}
	}
}

func TestRetryRespectsContextDeadline(t *testing.T) {
	w := smallWorld(t, 9)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	w.Platform.SetFaultHook(&dropHook{keys: map[string]bool{plan[0].Config.Key(): true}})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = w.RunCampaign(plan, CampaignOptions{
		UseTruth: true,
		Ctx:      ctx,
		Retry:    fault.Retry{MaxAttempts: 100, BaseBackoff: time.Second, MaxBackoff: time.Minute},
	})
	if err == nil {
		t.Fatal("campaign should fail when the deadline cuts retries short")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored the context deadline (took %v)", elapsed)
	}
}
