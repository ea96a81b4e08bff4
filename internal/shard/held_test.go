package shard

import (
	"reflect"
	"slices"
	"testing"

	"spooftrack/internal/provenance"
	"spooftrack/internal/stream"
)

// TestHeldStateNeverChanges: what a reader holds from one round stays as
// it was while the attack folds 20 more — the update a node returns from
// Hello, the candidate list of a ledger verdict, and an evaluator
// Snapshot — though all three share the controller's history rather
// than copy it.
func TestHeldStateNeverChanges(t *testing.T) {
	const at = broadcastRounds - 21 // 20 rounds follow the one held
	var (
		hello     EpochUpdate
		helloWant EpochUpdate
		cands     []int
		candsWant []int
		snap      stream.EvalSnapshot
		snapWant  stream.EvalSnapshot
	)
	led := broadcastAttack(t, func(string, EpochUpdate) {}, func(r int, cl *Cluster, led *provenance.Ledger) {
		if r != at {
			return
		}
		ct := cl.Controller()
		resp, err := cl.nodes["shard-0"].HandleHello(HelloRequest{Term: ct.Term(), Leader: ct.cfg.ID})
		if err != nil || !resp.HasUpdate {
			t.Fatalf("hello at round %d: %+v, %v", r, resp, err)
		}
		hello, helloWant = resp.Update, cloneUpdate(resp.Update)
		evs := led.Export().Events
		for i := len(evs) - 1; i >= 0 && cands == nil; i-- {
			if v := evs[i].Verdict; v != nil {
				cands = v.Candidates
			}
		}
		candsWant = slices.Clone(cands)
		snap = ct.Evaluator().Snapshot()
		snapWant = cloneUpdate(EpochUpdate{Snapshot: snap}).Snapshot
	})
	if len(snap.Rounds) != at+1 || len(hello.Snapshot.Rounds) != at+1 {
		t.Fatalf("held %d snapshot rounds and %d in the hello update, want %d", len(snap.Rounds), len(hello.Snapshot.Rounds), at+1)
	}
	if !reflect.DeepEqual(hello, helloWant) {
		t.Errorf("the hello update held from round %d changed:\n now  %+v\n then %+v", at, hello, helloWant)
	}
	if !slices.Equal(cands, candsWant) {
		t.Errorf("the verdict candidates held from round %d changed: now %v, then %v", at, cands, candsWant)
	}
	if !reflect.DeepEqual(snap, snapWant) {
		t.Errorf("the snapshot held from round %d changed:\n now  %+v\n then %+v", at, snap, snapWant)
	}
	// The held list must be one the later folds shrank, or sharing the
	// loop's buffer could not have shown here.
	var final []int
	for _, ev := range led.Export().Events {
		if v := ev.Verdict; v != nil {
			final = v.Candidates
		}
	}
	if len(final) >= len(candsWant) {
		t.Fatalf("candidates went %d → %d after round %d: the held list never shrank", len(candsWant), len(final), at)
	}
}

// cloneUpdate deep-copies an update's slices.
func cloneUpdate(u EpochUpdate) EpochUpdate {
	u.Members = slices.Clone(u.Members)
	u.Snapshot.Deployed = slices.Clone(u.Snapshot.Deployed)
	rounds := make([]stream.EvalRound, len(u.Snapshot.Rounds))
	for i, r := range u.Snapshot.Rounds {
		rounds[i] = stream.EvalRound{Config: r.Config, Volumes: slices.Clone(r.Volumes)}
	}
	u.Snapshot.Rounds = rounds
	return u
}
