package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestQuickstartLocalizesTheAttacker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if want := "localization narrowed"; !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}

// TestQuickstartCanceled: an interrupted campaign (Ctrl-C reaches run as
// a canceled context) ends promptly with the cancellation as its error.
func TestQuickstartCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := run(ctx, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run with a canceled context returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("run took %v to notice the cancellation", d)
	}
}
