package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the example's own: run
// re-executes os.Args[0] with -role=..., and those children must serve
// their role instead of running the tests.
func TestMain(m *testing.M) {
	if isChild(os.Args) {
		fmt.Fprintln(os.Stderr, "sharded-ingest:", child(os.Args[1:]))
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestShardedIngestSurvivesFailover(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if want := "byte-identical across failover: true"; !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}
