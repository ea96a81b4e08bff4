package shard

import (
	"runtime"
	"testing"

	"spooftrack/internal/stream"
)

// TestIntakeStartsNoGoroutine: an intake counts on its callers'
// goroutines and reads on its readers', so neither stream.NewIntake nor
// NewNode, which wraps one, starts a goroutine of its own. A hundred of
// each, all open at once, leave runtime.NumGoroutine where it was.
func TestIntakeStartsNoGoroutine(t *testing.T) {
	attr := chaosAttr()
	before := runtime.NumGoroutine()
	var closers []func()
	for i := 0; i < 100; i++ {
		in, err := stream.NewIntake(attr, stream.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(NodeConfig{ID: "s", Attr: attr, Pipe: stream.Config{Workers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		closers = append(closers, in.Close, n.Close)
	}
	after := runtime.NumGoroutine()
	for _, c := range closers {
		c()
	}
	if after > before {
		t.Fatalf("100 intakes and 100 shard nodes started %d goroutines", after-before)
	}
}
