package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// traceFixture journals a small nested campaign-shaped trace.
func traceFixture() *Tracer {
	tr := New(Options{Enabled: true})
	root := tr.Start("campaign")
	root.Set(Int("configs", 2))
	w := root.ChildTrack("worker")
	for i := 0; i < 2; i++ {
		d := w.Child("deploy")
		d.Set(Int("config", int64(i)))
		d.Count("events", 10+int64(i))
		time.Sleep(time.Millisecond)
		d.End()
	}
	w.End()
	root.End()
	return tr
}

func TestWriteJSONTimeline(t *testing.T) {
	tr := traceFixture()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			ID     uint64         `json:"id"`
			Parent uint64         `json:"parent"`
			Track  uint64         `json:"track"`
			Name   string         `json:"name"`
			Start  string         `json:"start"`
			DurNS  int64          `json:"dur_ns"`
			Args   map[string]any `json:"args"`
		} `json:"spans"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.Spans) != 4 {
		t.Fatalf("timeline has %d spans, want 4", len(doc.Spans))
	}
	deploys := 0
	for _, s := range doc.Spans {
		if _, err := time.Parse(time.RFC3339Nano, s.Start); err != nil {
			t.Fatalf("span %q start %q: %v", s.Name, s.Start, err)
		}
		if s.Name == "deploy" {
			deploys++
			if s.Parent == 0 || s.Args["events"] == nil || s.Args["config"] == nil {
				t.Fatalf("deploy span incomplete: %+v", s)
			}
			if s.DurNS < int64(time.Millisecond) {
				t.Fatalf("deploy span dur %d ns, want >= 1ms", s.DurNS)
			}
		}
	}
	if deploys != 2 {
		t.Fatalf("timeline has %d deploy spans, want 2", deploys)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := traceFixture()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var xEvents, metas int
	var campaignTID, deployTID uint64
	var campaignSpan, deploySpan struct{ ts, dur float64 }
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			xEvents++
			if ev.Dur <= 0 || ev.TS < 0 {
				t.Fatalf("event %q has ts=%v dur=%v", ev.Name, ev.TS, ev.Dur)
			}
			if ev.Name == "campaign" {
				campaignTID = ev.TID
				campaignSpan = struct{ ts, dur float64 }{ev.TS, ev.Dur}
			}
			if ev.Name == "deploy" && deployTID == 0 {
				deployTID = ev.TID
				deploySpan = struct{ ts, dur float64 }{ev.TS, ev.Dur}
			}
		case "M":
			metas++
			if ev.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %q", ev.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if xEvents != 4 {
		t.Fatalf("chrome trace has %d X events, want 4", xEvents)
	}
	if metas != 2 { // campaign track + worker track
		t.Fatalf("chrome trace has %d thread_name events, want 2", metas)
	}
	// Deploy spans ride the worker's track, not the campaign root's, and
	// nest within the campaign span's time range (flame-chart shape).
	if deployTID == campaignTID {
		t.Fatal("worker deploy events share the root track; parallel rows would overlap")
	}
	if deploySpan.ts < campaignSpan.ts ||
		deploySpan.ts+deploySpan.dur > campaignSpan.ts+campaignSpan.dur+1 {
		t.Fatalf("deploy span [%v,+%v] not contained in campaign span [%v,+%v]",
			deploySpan.ts, deploySpan.dur, campaignSpan.ts, campaignSpan.dur)
	}
}

func TestChromeTraceEmptyJournal(t *testing.T) {
	tr := New(Options{Enabled: true})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("empty trace must still carry traceEvents")
	}
}
