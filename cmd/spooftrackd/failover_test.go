package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spooftrack/internal/report"
	"spooftrack/internal/shard"
	"spooftrack/internal/topo"
)

// daemonEnv marks a process as this test binary re-executed to be the
// daemon: TestMain then runs main on the process's own arguments
// instead of the tests.
const daemonEnv = "SPOOFTRACKD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		// Stdin is a pipe the test binary holds open and never writes:
		// EOF means the test binary is gone, however it ended (a -timeout
		// panic included), and the daemon goes with it.
		go func() {
			_, _ = io.Copy(io.Discard, os.Stdin)
			os.Exit(1)
		}()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestControllerFailoverAcrossProcesses is the daemon's multi-process
// deployment as an operator runs it: two -shard-id processes, each
// with its packet plane and the built-in demo attacker, and two
// -controller processes sharing a -lease-file, all over one -topo-file
// and one -seed. Once the leader has made a reconfiguration it is
// SIGKILLed; the standby must lead at a higher term, recover the
// killed leader's deployments and rounds from the shards, converge,
// and name the attacking AS on /evidence.
func TestControllerFailoverAcrossProcesses(t *testing.T) {
	deadline := time.Now().Add(50 * time.Second)
	if d, ok := t.Deadline(); ok && d.Add(-5*time.Second).Before(deadline) {
		deadline = d.Add(-5 * time.Second)
	}
	dir, common := daemonWorld(t)
	var shards []*daemonProc
	var peers []string
	for _, id := range []string{"s0", "s1"} {
		p := startDaemon(t, dir, id, freeAddr(t), append([]string{"-shard-id", id}, common...)...)
		shards = append(shards, p)
		peers = append(peers, id+"="+p.url)
	}
	attacker := demoAttacker(t, deadline, shards)

	var ctrls []*daemonProc
	for _, id := range []string{"c0", "c1"} {
		ctrls = append(ctrls, startDaemon(t, dir, id, freeAddr(t), append([]string{"-controller", strings.Join(peers, ","),
			"-controller-id", id, "-lease-file", filepath.Join(dir, "lease")}, common...)...))
	}

	var before shard.ClusterStatus
	waitFor(t, deadline, "a leader with a reconfiguration", func() bool {
		for _, c := range ctrls {
			if cs, ok := clusterStatus(c); ok && cs.Leading && len(cs.DeployedConfigs) > 1 {
				before = cs
				return true
			}
		}
		return false
	})
	leader := slices.IndexFunc(ctrls, func(c *daemonProc) bool { return c.name == before.Leader })
	if err := ctrls[leader].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = ctrls[leader].cmd.Wait() // reports the SIGKILL
	t.Logf("SIGKILLed %s at term %d: rounds %d, deployed %v", before.Leader, before.Term, before.Rounds, before.DeployedConfigs)

	standby := ctrls[1-leader]
	var after shard.ClusterStatus
	waitFor(t, deadline, standby.name+" leading", func() bool {
		cs, ok := clusterStatus(standby)
		after = cs
		return ok && cs.Leading
	})
	if after.Term <= before.Term {
		t.Fatalf("%s leads at term %d, not above the killed leader's %d", standby.name, after.Term, before.Term)
	}
	if n := len(before.DeployedConfigs); len(after.DeployedConfigs) < n || !slices.Equal(after.DeployedConfigs[:n], before.DeployedConfigs) {
		t.Fatalf("%s deployed %v, which does not start with the killed leader's %v", standby.name, after.DeployedConfigs, before.DeployedConfigs)
	}
	if after.Rounds < before.Rounds {
		t.Fatalf("%s recovered %d rounds, fewer than the killed leader's %d", standby.name, after.Rounds, before.Rounds)
	}
	waitFor(t, deadline, standby.name+" converged", func() bool {
		cs, ok := clusterStatus(standby)
		after = cs
		return ok && cs.Converged
	})
	t.Logf("%s leads at term %d: rounds %d, deployed %v", standby.name, after.Term, after.Rounds, after.DeployedConfigs)

	res, err := http.Get(standby.url + "/evidence")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var rep report.Report
	if err := json.NewDecoder(res.Body).Decode(&rep); res.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("/evidence: status %d, %v", res.StatusCode, err)
	}
	if !slices.ContainsFunc(rep.Candidates, func(c report.Candidate) bool { return c.ASN == attacker }) {
		t.Fatalf("/evidence candidates %+v do not include the attacking AS%d", rep.Candidates, attacker)
	}
}

// TestControllerStartedBeforeShards starts a -controller, and its two
// -shard-id processes only once it serves, timed so that the shards
// first answer about shardsAnswer after it, as a supervisor that starts
// all three at once on a busy host may see. The controller must wait for
// the shards instead of evicting them: it leads with both as live
// members, folds rounds, and is not degraded.
func TestControllerStartedBeforeShards(t *testing.T) {
	// shardsAnswer is past the 1.2 s in which a controller that elects at
	// once evicts two unreachable shards, and inside its wait of
	// shard.LeaseTTL (2 s). A shard's start-to-serving time varies with
	// the build (0.6 s under -race, unloaded) and with what else runs, so
	// two throwaway shards are timed first, on this host as it is now,
	// and the real ones launched that much earlier.
	const shardsAnswer = 1600 * time.Millisecond
	deadline := time.Now().Add(30 * time.Second)
	dir, common := daemonWorld(t)
	ids := []string{"s0", "s1"}

	t0 := time.Now()
	var probes []*daemonProc
	for _, id := range ids {
		probes = append(probes, startDaemon(t, dir, "probe-"+id, freeAddr(t), append([]string{"-shard-id", id}, common...)...))
	}
	for _, p := range probes {
		waitServing(t, deadline, p)
	}
	startup := time.Since(t0)
	for _, p := range probes {
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
	}
	launch := max(0, shardsAnswer-startup)

	var addrs, peers []string
	for _, id := range ids {
		addrs = append(addrs, freeAddr(t))
		peers = append(peers, id+"=http://"+addrs[len(addrs)-1])
	}
	ctrl := startDaemon(t, dir, "c0", freeAddr(t), append([]string{"-controller", strings.Join(peers, ","),
		"-controller-id", "c0", "-lease-file", filepath.Join(dir, "lease")}, common...)...)
	waitServing(t, deadline, ctrl)
	serving := time.Now()
	time.Sleep(launch)
	var shards []*daemonProc
	for i, id := range ids {
		shards = append(shards, startDaemon(t, dir, id, addrs[i], append([]string{"-shard-id", id}, common...)...))
	}
	for _, p := range shards {
		waitServing(t, deadline, p)
	}
	t.Logf("two shards served %v after start; launched %v and served %v after the controller (aim %v, wait %v)",
		startup.Round(time.Millisecond), launch.Round(time.Millisecond),
		time.Since(serving).Round(time.Millisecond), shardsAnswer, shard.LeaseTTL)

	var cs shard.ClusterStatus
	waitFor(t, deadline, "c0 leading with a round folded or a shard evicted", func() bool {
		var ok bool
		cs, ok = clusterStatus(ctrl)
		return ok && cs.Leading && (cs.Rounds > 0 || cs.Degraded)
	})
	var live []string
	for _, m := range cs.Members {
		if m.State == "live" {
			live = append(live, m.ID)
		}
	}
	if !slices.Equal(live, ids) || cs.Degraded || cs.DiscardedRounds != 0 {
		t.Fatalf("c0 leads with live members %v (want %v), degraded %v, discarded rounds %d: %+v",
			live, ids, cs.Degraded, cs.DiscardedRounds, cs.Members)
	}
}

// daemonWorld writes the daemon's -seed 42 world of 1 000 ASes as a
// -topo-file in a new directory, and returns the directory and the
// flags every daemon process of a test shares.
func daemonWorld(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	topoFile := filepath.Join(dir, "topo.txt")
	writeTopology(t, topoFile, 42, 1000)
	return dir, []string{"-topo-file", topoFile, "-seed", "42", "-eval", "100ms", "-min-round", "40",
		"-probe-interval", "0", "-bundle-dir", filepath.Join(dir, "bundles")}
}

// daemonProc is one daemon process the test started.
type daemonProc struct {
	name, url string
	cmd       *exec.Cmd
	log       *syncBuffer
}

// freeAddr returns a loopback address whose port no listener holds.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startDaemon runs this test binary as the daemon with args, listening
// on addr and working in dir. Cleanup kills it, and fails the test if
// its log reports a data race.
func startDaemon(t *testing.T, dir, name, addr string, args ...string) *daemonProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{name: name, url: "http://" + addr, log: &syncBuffer{}}
	p.cmd = exec.Command(exe, append([]string{"-listen", addr}, args...)...)
	p.cmd.Dir = dir
	p.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	p.cmd.Stderr = p.log
	// Never written: the child reads it to notice this process is gone.
	if _, err := p.cmd.StdinPipe(); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
		if strings.Contains(p.log.String(), "WARNING: DATA RACE") {
			t.Errorf("%s reported a data race:\n%s", name, p.log)
		} else if t.Failed() {
			t.Logf("%s log:\n%s", name, p.log)
		}
	})
	return p
}

// demoAttacker is the AS the shards' demo attackers spoof from, as
// their logs name it: every shard must name the same one.
func demoAttacker(t *testing.T, deadline time.Time, shards []*daemonProc) topo.ASN {
	t.Helper()
	re := regexp.MustCompile(`msg="demo attacker spoofing" attacker=1 asn=(\d+)`)
	var asns []string
	waitFor(t, deadline, "the demo attacker logged by every shard", func() bool {
		asns = asns[:0]
		for _, p := range shards {
			if m := re.FindStringSubmatch(p.log.String()); m != nil {
				asns = append(asns, m[1])
			}
		}
		return len(asns) == len(shards)
	})
	asn, err := strconv.ParseUint(asns[0], 10, 32)
	if err != nil || len(slices.Compact(slices.Clone(asns))) != 1 {
		t.Fatalf("shards name demo attackers %v", asns)
	}
	return topo.ASN(asn)
}

// waitServing waits until p answers /healthz.
func waitServing(t *testing.T, deadline time.Time, p *daemonProc) {
	t.Helper()
	waitFor(t, deadline, p.name+" serving", func() bool {
		res, err := http.Get(p.url + "/healthz")
		if err != nil {
			return false
		}
		res.Body.Close()
		return res.StatusCode == http.StatusOK
	})
}

// clusterStatus reads a controller's /cluster.
func clusterStatus(p *daemonProc) (shard.ClusterStatus, bool) {
	var cs shard.ClusterStatus
	res, err := http.Get(p.url + "/cluster")
	if err != nil {
		return cs, false
	}
	defer res.Body.Close()
	ok := res.StatusCode == http.StatusOK && json.NewDecoder(res.Body).Decode(&cs) == nil
	return cs, ok
}

// waitFor polls cond until it holds, failing the test at deadline.
func waitFor(t *testing.T, deadline time.Time, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// writeTopology writes the daemon's own generated world as a -topo-file.
func writeTopology(t *testing.T, path string, seed uint64, ases int) {
	t.Helper()
	p := topo.DefaultGenParams(seed)
	p.NumASes = ases
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := topo.WriteCAIDA(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// syncBuffer is a bytes.Buffer a child's stderr copier writes while
// the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
