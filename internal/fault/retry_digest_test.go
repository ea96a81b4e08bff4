package fault_test

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/fault"
	"spooftrack/internal/provenance"
	"spooftrack/internal/shard"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
)

// digest folds lines into one FNV-1a value.
func digest(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// failingTransport refuses every RPC, counting the calls.
type failingTransport struct{ calls int }

func (f *failingTransport) Collect(string, shard.CollectRequest) (shard.CollectResponse, error) {
	f.calls++
	return shard.CollectResponse{}, shard.ErrUnavailable
}

func (f *failingTransport) Apply(string, shard.EpochUpdate) (shard.ApplyResponse, error) {
	f.calls++
	return shard.ApplyResponse{}, shard.ErrUnavailable
}

func (f *failingTransport) Hello(string, shard.HelloRequest) (shard.HelloResponse, error) {
	f.calls++
	return shard.HelloResponse{}, shard.ErrUnavailable
}

// digestAttr is a 16-source, 4-configuration, 2-link attribution matrix
// in which configuration c splits the sources by bit c.
func digestAttr() stream.Attribution {
	const nSources, nConfigs = 16, 4
	catchments := make([][]bgp.LinkID, nConfigs)
	for c := range catchments {
		row := make([]bgp.LinkID, nSources)
		for k := range row {
			row[k] = bgp.LinkID((k >> c) & 1)
		}
		catchments[c] = row
	}
	asns := make([]topo.ASN, nSources)
	for k := range asns {
		asns[k] = topo.ASN(65000 + k)
	}
	return stream.Attribution{Catchments: catchments, SourceASNs: asns, NumLinks: 2}
}

// campaignLines runs one campaign of a small world under the named
// profile and returns its retry-visible record: the ledger's deploy,
// retry and degrade events, the incomplete configurations, and the
// campaign error, if any.
func campaignLines(t *testing.T, name string, seed uint64, useTruth bool) []string {
	t.Helper()
	p := core.DefaultWorldParams(seed)
	tp := topo.DefaultGenParams(seed)
	tp.NumASes = 300
	p.Topo = &tp
	p.NumCollectors = 30
	p.NumProbes = 100
	p.MaxPoisonTargets = 10
	w, err := core.BuildWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) > 60 {
		plan = plan[:60]
	}
	prof, err := fault.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prof.DeployLatency = 0
	inj := fault.New(prof, seed, w.Platform.NumLinks())
	w.Platform.SetFaultHook(inj)
	retry := core.DefaultRetryPolicy()
	retry.BaseBackoff, retry.MaxBackoff = 0, 0
	led := provenance.New(provenance.Options{})
	c, err := w.RunCampaign(plan, core.CampaignOptions{
		UseTruth:     useTruth,
		Parallelism:  2,
		Retry:        retry,
		MeasureFault: inj,
		Ledger:       led,
	})
	var lines []string
	for _, ev := range led.Export().Events {
		switch {
		case ev.Deploy != nil:
			lines = append(lines, fmt.Sprintf("deploy %+v", *ev.Deploy))
		case ev.Retry != nil:
			lines = append(lines, fmt.Sprintf("retry %+v", *ev.Retry))
		case ev.Degrade != nil:
			lines = append(lines, fmt.Sprintf("degrade %+v", *ev.Degrade))
		}
	}
	sort.Strings(lines) // workers record in whatever order they finish
	if err != nil {
		return append(lines, "error "+err.Error())
	}
	return append(lines, fmt.Sprintf("incomplete %v", c.Incomplete))
}

// clusterLines drives a 4-shard cluster through ten rounds under the
// named profile with the controllers' default retry schedule, and
// returns every step's flags, the deferred and discarded round counts,
// and the ledger's membership and failover events.
func clusterLines(t *testing.T, name string) []string {
	t.Helper()
	prof, err := fault.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	attr := digestAttr()
	led := provenance.New(provenance.Options{})
	cl, err := shard.NewCluster(shard.ClusterConfig{
		Shards:          4,
		Attr:            attr,
		MinRoundPackets: 1,
		Pipe:            stream.Config{Workers: 2, BatchSize: 1, FlushInterval: time.Millisecond, Ledger: led},
		Injector:        fault.New(prof, 0xD16E50, attr.NumLinks),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	attackers := []struct{ src, pkts int }{{5, 30}, {11, 20}, {2, 10}}
	var lines []string
	const rounds = 10
	for r := 0; r < rounds; r++ {
		cfg := cl.Controller().Status().CurrentConfig
		for _, a := range attackers {
			for i := 0; i < a.pkts; i++ {
				cl.Ingest(amp.Event{
					Time:        time.Now(),
					IngressLink: uint8(attr.Catchments[cfg][a.src]),
					TrueSrcAS:   uint32(attr.SourceASNs[a.src]),
					SpoofedSrc:  netip.MustParseAddr("192.0.2.66"),
					WireLen:     64,
				})
			}
		}
		if err := cl.Quiesce(10 * time.Second); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		// shard-1 is cut off for two rounds and heals; the active
		// controller crashes; shard-2 is cut off for good.
		switch r {
		case 2:
			cl.Isolate("shard-1", true)
		case 4:
			cl.Isolate("shard-1", false)
		case 5:
			cl.KillController()
		case 6:
			cl.Isolate("shard-2", true)
		}
		res, err := cl.Step(r == rounds-1)
		if err != nil {
			t.Fatalf("round %d: Step: %v", r, err)
		}
		lines = append(lines, fmt.Sprintf("step %d folded=%v skipped=%v deferred=%v discarded=%v",
			r, res.Folded, res.Skipped, res.Deferred, res.Discarded))
	}
	st := cl.Controller().Status()
	lines = append(lines, fmt.Sprintf("status deferred=%d discarded=%d", st.DeferredRounds, st.DiscardedRounds))
	for _, ev := range led.Export().Events {
		switch {
		case ev.Membership != nil:
			lines = append(lines, fmt.Sprintf("membership %+v", *ev.Membership))
		case ev.Failover != nil:
			lines = append(lines, fmt.Sprintf("failover %+v", *ev.Failover))
		}
	}
	return lines
}

// TestRetryDigest pins everything retrying decides: the campaign's
// jittered backoff per (configuration, attempt), the controller's
// default attempt budget and backoff, and, under every fault profile,
// which campaign attempts are retried or degraded and which shard
// rounds are deferred or discarded.
func TestRetryDigest(t *testing.T) {
	var backoff []string
	pol := core.DefaultRetryPolicy()
	for site := 0; site < 64; site++ {
		for attempt := 0; attempt < 8; attempt++ {
			backoff = append(backoff, pol.Backoff(site, attempt).String())
		}
	}
	if got, want := digest(backoff), uint64(0xaaea79aba37419c); got != want {
		t.Errorf("campaign backoff digest %#x, want %#x", got, want)
	}

	// The controller's schedule, read through its Sleep seam: electing
	// over one unreachable shard spends the whole hello budget.
	tr := &failingTransport{}
	var slept []string
	ct, err := shard.NewController(shard.ControllerConfig{
		ID:        "ctrl-0",
		Attr:      digestAttr(),
		Members:   []string{"shard-0"},
		Transport: tr,
		Lease:     shard.NewMemLease(),
		Sleep:     func(d time.Duration) { slept = append(slept, d.String()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.TryLead(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%d calls, slept %v", tr.calls, slept),
		"8 calls, slept [1ms 2ms 4ms 8ms 16ms 32ms 64ms]"; got != want {
		t.Errorf("controller hello: %s, want %s", got, want)
	}

	var camp []string
	for _, name := range fault.Names() {
		for _, seed := range []uint64{3, 8} {
			for _, truth := range []bool{true, false} {
				label := fmt.Sprintf("%s seed=%d truth=%v", name, seed, truth)
				for _, l := range campaignLines(t, name, seed, truth) {
					camp = append(camp, label+" "+l)
				}
			}
		}
	}
	if got, want := digest(camp), uint64(0xad44d46e5a82c739); got != want {
		t.Errorf("campaign retry digest %#x, want %#x", got, want)
		if testing.Verbose() {
			for _, l := range camp {
				t.Log(l)
			}
		}
	}

	for _, name := range []string{"netsplit", "chaos"} {
		lines := clusterLines(t, name)
		if got, want := digest(lines), map[string]uint64{"netsplit": 0x8dc73fae2c47c637, "chaos": 0x23a2c6738d903999}[name]; got != want {
			t.Errorf("%s cluster digest %#x, want %#x", name, got, want)
			for _, l := range lines {
				t.Log(l)
			}
		}
	}
}
