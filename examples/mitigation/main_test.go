package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestMitigationStopsTheAttack(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if want := "after mitigation:  0 of 100 attack packets reached the honeypot"; !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}
