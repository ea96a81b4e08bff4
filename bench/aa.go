package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The A/A mode measures the benchmark's own noise floor: two sets of
// runs of the same build, alternating, each run on its own seed, as a
// driver comparing a parent commit with a change would make them. For
// every end-to-end metric and workload it reports how far the two sets'
// medians are apart and how wide each set's quartiles are, both as a
// share of the median, and fails when either is beyond the metric's
// bound. NOISE.md is its committed output.

// runOnce re-executes this binary for one run and returns the metrics
// on its last line.
func runOnce(exe, workload string, seed uint64, seconds int, stderr io.Writer) (jsonResult, error) {
	cmd := exec.Command(exe,
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds),
		"--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return jsonResult{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return jsonResult{}, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return res, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

func runAA(n, seconds int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "A/A: two alternating sets of %d runs per workload, -seconds %d, one seed per run (set A seeds 1..%d, set B %d..%d)\n\n",
		n, seconds, n, n+1, 2*n)
	fmt.Fprintln(stdout, "`diff` is (median B − median A) / median A; `iqr` is (Q3 − Q1) / median by Python's statistics.quantiles(n=4).")
	fmt.Fprintln(stdout, "A cell fails when |diff| or an iqr is beyond the bound (setup_s: diff only).")
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "| workload | metric | median A | median B | diff | iqr A | iqr B | bound | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|")
	failed := 0
	for _, def := range workloadDefs {
		// values[set][metric] collects one value per run.
		values := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				// Alternate which set runs first, so a drift in the
				// machine's load lands on both.
				s := (set + i) % 2
				res, err := runOnce(exe, def.name, uint64(s*n+i+1), seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
				for name, mt := range res.Metrics {
					values[s][name] = append(values[s][name], mt.Value)
				}
			}
		}
		for _, d := range endToEndDefs {
			a, b := values[0][d.name], values[1][d.name]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			diff := 0.0
			if ma != 0 {
				diff = (mb - ma) / ma
			}
			ia, ib := iqrFrac(a), iqrFrac(b)
			verdict := "ok"
			spreadOK := d.name == "setup_s" || (ia <= d.bound && ib <= d.bound)
			if diff > d.bound || diff < -d.bound || !spreadOK {
				verdict = "FAIL"
				failed++
			} else if d.name != "setup_s" && (ia > d.bound/3 || ib > d.bound/3) {
				verdict = "ok (iqr above a third of the bound)"
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g | %.6g | %+.3f%% | %.3f%% | %.3f%% | %.0f%% | %s |\n",
				def.name, d.name, ma, mb, 100*diff, 100*ia, 100*ib, 100*d.bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "\n%d cells beyond their bound\n", failed)
		return 1
	}
	fmt.Fprintln(stdout, "\nevery cell within its bound")
	return 0
}
