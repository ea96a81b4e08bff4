package main

import (
	"bytes"
	"errors"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"testing"
)

// pinnedOutputs are FNV-64a digests of what each command line prints.
// The first two were recorded before the campaign stopped holding its
// outcomes: the three studies audit, predict against and target from
// every configuration's routing outcome, so they pin that an outcome
// fetched again from the platform is the one the campaign deployed.
// The third was recorded while the drivers still took a lab built
// beside the campaign and Fig. 8 and Fig. 10 took their sizes as
// parameters; it pins that the drivers read the same campaign and
// sizes now.
var pinnedOutputs = []struct {
	args   string
	digest uint64
}{
	{"-q -truth -ases 1000 -poisons 20 fig9 extpredict extpoison", 0x9f0bf533e79674db},
	{"-q -ases 1000 -poisons 20 fig9 extpredict extpoison", 0x69481420ac95168b},
	{"-q -truth -ases 1000 -poisons 20 table1 headline fig8 fig10", 0x4bb03f5b719b9bf0},
}

// TestPinnedStudyOutputs runs each command line above and hashes what
// it prints.
func TestPinnedStudyOutputs(t *testing.T) {
	for _, pin := range pinnedOutputs {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(pin.args), &stdout, &stderr); err != nil {
			t.Fatalf("spooftrack %s: %v\n%s", pin.args, err, stderr.String())
		}
		if stderr.Len() != 0 {
			t.Errorf("spooftrack %s: -q still wrote to stderr:\n%s", pin.args, stderr.String())
		}
		h := fnv.New64a()
		h.Write(stdout.Bytes())
		if got := h.Sum64(); got != pin.digest {
			t.Errorf("spooftrack %s: output digest %#x, pinned %#x:\n%s", pin.args, got, pin.digest, stdout.String())
		}
	}
}

// TestUnknownExperimentRefusedFirst: a misspelt experiment is a usage
// error naming it, reported before any world is built.
func TestUnknownExperimentRefusedFirst(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"headline", "fig33"}, &stdout, &stderr)
	if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), `"fig33"`) {
		t.Fatalf("run(headline fig33) = %v, want a usage error naming fig33", err)
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("output before the refusal:\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
	}
	for _, args := range [][]string{nil, {"-bogus", "fig3"}} {
		if err := run(args, io.Discard, io.Discard); !errors.As(err, new(usageError)) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}

// TestDocumentedInvocationsParse: every spooftrack command line the
// README shows parses, names included.
func TestDocumentedInvocationsParse(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	runs := invocations(string(data), "go run ./cmd/spooftrack")
	if len(runs) == 0 {
		t.Fatal("README.md shows no spooftrack command line")
	}
	for _, args := range runs {
		if _, err := parse(args, io.Discard); err != nil {
			t.Errorf("spooftrack %s: %v", strings.Join(args, " "), err)
		}
	}
}

// invocations returns the arguments of every line of doc that runs
// prog, in a code block or a table cell, up to a comment or a closing
// backtick.
func invocations(doc, prog string) [][]string {
	var runs [][]string
	for _, line := range strings.Split(doc, "\n") {
		i := strings.Index(line, prog)
		if i < 0 {
			continue
		}
		rest := line[i+len(prog):]
		if rest != "" && rest[0] != ' ' && rest[0] != '`' {
			continue // another program sharing the prefix
		}
		if j := strings.IndexAny(rest, "`#"); j >= 0 {
			rest = rest[:j]
		}
		runs = append(runs, strings.Fields(rest))
	}
	return runs
}
