package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func enabled(capacity int) *Tracer {
	return newTracer(Options{Enabled: true}, capacity)
}

func TestDisabledTracerHandsOutNilSpans(t *testing.T) {
	tr := New(Options{})
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("disabled tracer must return nil spans")
	}
	// Every method must be a nil-safe no-op.
	sp.Set(Int("a", 1))
	sp.Count("c", 2)
	child := sp.Child("y")
	if child != nil {
		t.Fatal("nil span's child must be nil")
	}
	sp.ChildTrack("z").End()
	sp.End()
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("disabled tracer journaled %d spans", len(got))
	}
}

func TestNilTracerIsValid(t *testing.T) {
	var tr *Tracer
	if tr.Start("x") != nil {
		t.Fatal("nil tracer handed out a live span")
	}
	tr.Start("x").End()
	if tr.Snapshot() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must act empty")
	}
}

func TestSpanNestingAndRecords(t *testing.T) {
	tr := enabled(64)
	root := tr.Start("root")
	root.Set(String("who", "test"), Bool("ok", true))
	child := root.Child("child")
	child.Count("events", 3)
	child.Count("events", 4)
	child.Set(Float("ratio", 0.5))
	worker := root.ChildTrack("worker")
	grand := worker.Child("task")
	grand.End()
	worker.End()
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	r := byName["root"]
	if r.Parent != 0 || r.Track != r.ID {
		t.Fatalf("root record %+v: want parentless on own track", r)
	}
	c := byName["child"]
	if c.Parent != r.ID || c.Track != r.Track {
		t.Fatalf("child record %+v: want parent %d on track %d", c, r.ID, r.Track)
	}
	if got := c.Args()["events"]; got != int64(7) {
		t.Fatalf("child counter events = %v, want 7", got)
	}
	if got := c.Args()["ratio"]; got != 0.5 {
		t.Fatalf("child attr ratio = %v, want 0.5", got)
	}
	w := byName["worker"]
	if w.Parent != r.ID || w.Track == r.Track || w.Track != w.ID {
		t.Fatalf("worker record %+v: want own track under root", w)
	}
	g := byName["task"]
	if g.Parent != w.ID || g.Track != w.Track {
		t.Fatalf("task record %+v: want nested on worker track", g)
	}
	if got := r.Args()["who"]; got != "test" {
		t.Fatalf("root attr who = %v", got)
	}
	if got := r.Args()["ok"]; got != true {
		t.Fatalf("root attr ok = %v", got)
	}
}

func TestEndIsIdempotentAndSealsSpan(t *testing.T) {
	tr := enabled(16)
	sp := tr.Start("x")
	sp.Count("n", 1)
	sp.End()
	sp.Count("n", 100)
	sp.Set(Int("late", 1))
	sp.End()
	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (End must be idempotent)", len(recs))
	}
	if got := recs[0].Args()["n"]; got != int64(1) {
		t.Fatalf("counter mutated after End: %v", got)
	}
	if _, ok := recs[0].Args()["late"]; ok {
		t.Fatal("attr attached after End")
	}
}

func TestJournalBoundedEviction(t *testing.T) {
	// Two records per journal shard: each shard's ring wraps twice.
	tr := enabled(2 * journalShards)
	for i := 0; i < 5*journalShards; i++ {
		tr.Start("s").End()
	}
	recs := tr.Snapshot()
	if len(recs) != 2*journalShards {
		t.Fatalf("journal holds %d records, want cap %d", len(recs), 2*journalShards)
	}
	if tr.Dropped() != 3*journalShards {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), 3*journalShards)
	}
	// Eviction keeps the newest records, in order.
	for i := 1; i < len(recs); i++ {
		if recs[i].ID <= recs[i-1].ID {
			t.Fatalf("snapshot out of order: %d after %d", recs[i].ID, recs[i-1].ID)
		}
	}
	if recs[0].ID != 3*journalShards+1 {
		t.Fatalf("oldest surviving span ID = %d, want %d", recs[0].ID, 3*journalShards+1)
	}
}

func TestStartChildFallsBackToGlobal(t *testing.T) {
	prev := global.Load()
	defer SetGlobal(prev)
	tr := enabled(16)
	SetGlobal(tr)

	root := Start("root")
	if root == nil {
		t.Fatal("global tracer enabled but Start returned nil")
	}
	if c := StartChild(root, "c"); c == nil || c.parent != root.id {
		t.Fatal("StartChild with parent must nest")
	} else {
		c.End()
	}
	orphan := StartChild(nil, "orphan")
	if orphan == nil || orphan.parent != 0 {
		t.Fatal("StartChild without parent must start a root span")
	}
	orphan.End()
	root.End()
	if len(tr.Snapshot()) != 3 {
		t.Fatalf("got %d records, want 3", len(tr.Snapshot()))
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	tr := enabled(1024)
	root := tr.Start("root")
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			wsp := root.ChildTrack("worker")
			for i := 0; i < 50; i++ {
				sp := wsp.Child("task")
				sp.Count("i", int64(i))
				sp.Set(Int("k", int64(k)))
				sp.End()
			}
			wsp.End()
		}(k)
	}
	// Concurrent snapshot while spans end.
	for i := 0; i < 10; i++ {
		tr.Snapshot()
	}
	wg.Wait()
	root.End()
	recs := tr.Snapshot()
	if len(recs) == 0 {
		t.Fatal("no records after concurrent run")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.Before(recs[i-1].Start) {
			t.Fatal("snapshot not ordered by start time")
		}
	}
}

func TestMonotonicDurations(t *testing.T) {
	tr := enabled(16)
	sp := tr.Start("timed")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].Duration < 2*time.Millisecond {
		t.Fatalf("duration %v, want >= 2ms", recs[0].Duration)
	}
	if strings.TrimSpace(recs[0].Name) == "" {
		t.Fatal("record lost its name")
	}
}
