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

func TestExplainVerdictReplays(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	ledger, dot := filepath.Join(dir, "ledger.json"), filepath.Join(dir, "ledger.dot")
	var out bytes.Buffer
	if err := run(ctx, &out, ledger, dot); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if want := "the live verdict is fully accounted for by the recorded evidence"; !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
	for _, path := range []string{ledger, dot} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written: %v", path, err)
		}
	}
}
