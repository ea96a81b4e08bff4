package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The tracer records one span around each call the harness makes into a
// package's public functions. Spans live in memory and are written out
// once, after the run. Nothing inside the program is instrumented: the
// program's own internal/trace stays off, so the spans cost the program
// nothing and every layer boundary below is one the harness can see
// from outside.

// spanID indexes tracer.spans; noSpan is "no parent" and what a nil
// tracer hands out.
type spanID int32

const noSpan spanID = -1

// span is one recorded call. Wall times are nanoseconds since the
// tracer was created; CPU is the process CPU consumed between start and
// end, which on the single-goroutine workloads is the call's own cost
// plus the collector's concurrent work it caused.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  spanID `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	CPUNS   int64  `json:"cpu_ns"`

	cpuStart time.Duration
}

// tracer is safe for concurrent use: deploy callbacks run on the
// pipeline's controller goroutine while the load goroutine has its own
// spans open. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp tags the spans that follow with the op's index.
func (t *tracer) beginOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

func (t *tracer) start(parent spanID, name string) spanID {
	if t == nil {
		return noSpan
	}
	cpu := cpuTime()
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, Op: t.op, Parent: parent,
		StartNS: int64(time.Since(t.t0)), cpuStart: cpu,
	})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	cpu := cpuTime()
	t.mu.Lock()
	sp := &t.spans[id]
	sp.EndNS = int64(time.Since(t.t0))
	sp.CPUNS = int64(cpu - sp.cpuStart)
	t.mu.Unlock()
}

// inside records a child span over an interval the harness did not see
// start and end itself but the program reported: RunCampaign's deploy
// and measure phases, whose lengths come from the program's own
// core_campaign_phase_seconds histogram. CPU is apportioned from the
// parent by wall share when selfTimes runs.
func (t *tracer) inside(parent spanID, name string, offset, length time.Duration) {
	if t == nil || parent == noSpan {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		Name: name, Op: p.Op, Parent: parent,
		StartNS: p.StartNS + int64(offset), EndNS: p.StartNS + int64(offset+length),
		CPUNS: -1,
	})
	t.mu.Unlock()
}

// selfTime is one span name's cost with its children taken out.
type selfTime struct {
	Name   string
	Calls  int
	WallNS int64
	CPUNS  int64
}

// selfTimes aggregates by span name: a span's self time is its duration
// minus the part of it its child spans cover.
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	// Reported intervals get the parent's CPU in proportion to wall.
	for i := range spans {
		if sp := &spans[i]; sp.CPUNS < 0 {
			p := spans[sp.Parent]
			if d := p.EndNS - p.StartNS; d > 0 {
				sp.CPUNS = p.CPUNS * (sp.EndNS - sp.StartNS) / d
			} else {
				sp.CPUNS = 0
			}
		}
	}
	children := make(map[spanID][]int)
	for i, sp := range spans {
		if sp.Parent != noSpan {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	byName := make(map[string]*selfTime)
	for i, sp := range spans {
		wall := sp.EndNS - sp.StartNS
		cpu := sp.CPUNS
		kids := children[spanID(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered := sp.StartNS
		for _, k := range kids {
			c := spans[k]
			s, e := c.StartNS, c.EndNS
			if s < covered {
				s = covered
			}
			if e > sp.EndNS {
				e = sp.EndNS
			}
			if e > s {
				wall -= e - s
				covered = e
			}
			cpu -= c.CPUNS
		}
		if cpu < 0 {
			cpu = 0
		}
		st := byName[sp.Name]
		if st == nil {
			st = &selfTime{Name: sp.Name}
			byName[sp.Name] = st
		}
		st.Calls++
		st.WallNS += wall
		st.CPUNS += cpu
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// layerOf is the package a span name belongs to: "stream.ingest" is
// layer "stream".
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
