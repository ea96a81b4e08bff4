package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDDoSLocalizesEveryAttacker runs the live loop once and checks its
// three verdicts: every attacker is a candidate, the ledger read back
// from its file replays every verdict, and the flowspec filter stops
// every attack packet.
func TestDDoSLocalizesEveryAttacker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	ledger, dot := filepath.Join(dir, "ledger.json"), filepath.Join(dir, "ledger.dot")
	var out bytes.Buffer
	if err := run(ctx, &out, ledger, dot); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{
		"true attackers among candidates: 2 of 2",
		"the live verdict is fully accounted for by the recorded evidence",
		"after mitigation:  0 of 100 attack packets reached the honeypot",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, path := range []string{ledger, dot} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written: %v", path, err)
		}
	}
}
