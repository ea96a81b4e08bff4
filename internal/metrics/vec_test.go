package metrics

import (
	"sync"
	"testing"
)

func TestCounterVecIdentityAndValues(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("packets_total", "link", "outcome")
	v.With("0", "ok").Add(3)
	v.With("1", "drop").Inc()
	v.With("0", "ok").Add(2)

	if got := v.With("0", "ok").Value(); got != 5 {
		t.Fatalf(`With("0","ok") = %d, want 5`, got)
	}
	if got := v.With("1", "drop").Value(); got != 1 {
		t.Fatalf(`With("1","drop") = %d, want 1`, got)
	}
	// Same label set must resolve to the same child.
	if v.With("0", "ok") != v.With("0", "ok") {
		t.Fatal("With returned different children for one label set")
	}
	// Registry lookup returns the same vector.
	if r.CounterVec("packets_total", "link", "outcome") != v {
		t.Fatal("CounterVec lookup returned a different vector")
	}
}

func TestVecKeyNoCollision(t *testing.T) {
	v := NewRegistry().CounterVec("x", "a", "b")
	v.With("ab", "c").Inc()
	v.With("a", "bc").Inc()
	if got := v.With("ab", "c").Value(); got != 1 {
		t.Fatalf(`("ab","c") = %d, want 1`, got)
	}
	if got := v.With("a", "bc").Value(); got != 1 {
		t.Fatalf(`("a","bc") = %d, want 1`, got)
	}
}

func TestVecWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("With with wrong arity should panic")
		}
	}()
	NewRegistry().CounterVec("x", "a", "b").With("only-one")
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat", []string{"link"}, 1, 10)
	h.With("7").Observe(3)
	h.With("7").Observe(0.5)
	if got := h.With("7").Count(); got != 2 {
		t.Fatalf("histogram child count = %d", got)
	}
}

func TestVecConcurrentCreateAndObserve(t *testing.T) {
	v := NewRegistry().CounterVec("c", "k")
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	const per = 2000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v.With(keys[(g+i)%len(keys)]).Inc()
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	for _, k := range keys {
		total += v.With(k).Value()
	}
	if total != 8*per {
		t.Fatalf("total = %d, want %d", total, 8*per)
	}
}

func TestVecRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("pkts", "link")
	v.With("0").Add(7)
	v.With("3").Add(9)
	snap := r.Snapshot()
	m, ok := snap["pkts"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot pkts = %T, want map", snap["pkts"])
	}
	if m["link=0"] != int64(7) || m["link=3"] != int64(9) {
		t.Fatalf("snapshot children = %v", m)
	}
}
