package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"spooftrack/internal/metrics"
	"spooftrack/internal/tsdb"
)

// queryBase is the fixed clock the /query fixtures scrape under, so the
// payloads (point timestamps included) are golden-stable.
var queryBase = time.Unix(1_700_000_000, 0)

// queryMux builds a mux whose only live surface is the metric history:
// a counter at 5/s, a two-child vector at 10/s and 30/s, and a latency
// histogram, scraped once per second for a minute.
func queryMux(t *testing.T) *http.ServeMux {
	t.Helper()
	reg := metrics.NewRegistry()
	ev := reg.Counter("events_total")
	cv := reg.CounterVec("link_packets_total", "link")
	h := reg.Histogram("flush_seconds", 0.01, 0.1, 1)
	db := tsdb.New(tsdb.Options{Registry: reg})
	for i := 0; i <= 60; i++ {
		ev.Add(5)
		cv.With("0").Add(10)
		cv.With("1").Add(30)
		h.Observe(0.05)
		db.ScrapeOnce(queryBase.Add(time.Duration(i) * time.Second))
	}
	return componentMux(observability{reg: reg, db: db}.routes)
}

// rangeParams pins from/to to the fixture's scrape window (unix
// seconds), keeping responses independent of the wall clock.
func rangeParams() string {
	return fmt.Sprintf("from=%d&to=%d", queryBase.Unix(), queryBase.Add(60*time.Second).Unix())
}

func getQuery(t *testing.T, mux *http.ServeMux, path string) queryResult {
	t.Helper()
	res, body := get(t, mux, path)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d\n%s", path, res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s Content-Type = %q", path, ct)
	}
	var qr queryResult
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatalf("%s is not JSON: %v\n%s", path, err, body)
	}
	return qr
}

func TestQueryEndpointNoDB(t *testing.T) {
	res, body := get(t, testMux(t), "/query?series=events_total")
	if res.StatusCode != http.StatusNotFound || !strings.Contains(body, "-scrape-interval") {
		t.Fatalf("query with no history: status %d body %q", res.StatusCode, body)
	}
	res, body = get(t, testMux(t), "/dash")
	if res.StatusCode != http.StatusNotFound || !strings.Contains(body, "-scrape-interval") {
		t.Fatalf("dash with no history: status %d body %q", res.StatusCode, body)
	}
}

func TestQueryRaw(t *testing.T) {
	mux := queryMux(t)
	qr := getQuery(t, mux, "/query?series=events_total&"+rangeParams())
	if len(qr.Series) != 1 || len(qr.Series[0].Points) != 61 {
		t.Fatalf("raw query: %d series, %d points", len(qr.Series), len(qr.Series[0].Points))
	}
	pts := qr.Series[0].Points
	if pts[0].V != 5 || pts[60].V != 305 {
		t.Fatalf("raw counter endpoints = %v .. %v, want 5 .. 305", pts[0].V, pts[60].V)
	}
	if qr.From != queryBase.UnixMilli() || pts[0].T != queryBase.UnixMilli() {
		t.Fatalf("range echo: from=%d first point=%d", qr.From, pts[0].T)
	}
}

func TestQueryRateGolden(t *testing.T) {
	mux := queryMux(t)
	path := "/query?series=events_total&func=rate&" + rangeParams()
	_, body := get(t, mux, path)
	qr := getQuery(t, mux, path)
	if len(qr.Series) != 1 || len(qr.Series[0].Points) != 60 {
		t.Fatalf("rate query: %+v", qr.Series)
	}
	for _, p := range qr.Series[0].Points {
		if p.V != 5 {
			t.Fatalf("steady 5/s counter: rate point %+v", p)
		}
	}
	goldenBody(t, "query_rate.golden", body)
}

func TestQueryVectorSumAndChild(t *testing.T) {
	mux := queryMux(t)
	// All children, rate: two series sorted by child key.
	qr := getQuery(t, mux, "/query?series=link_packets_total&func=rate&"+rangeParams())
	if len(qr.Series) != 2 || qr.Series[0].Child != "link=0" || qr.Series[1].Child != "link=1" {
		t.Fatalf("vector rate children = %+v", qr.Series)
	}
	if qr.Series[0].Points[0].V != 10 || qr.Series[1].Points[0].V != 30 {
		t.Fatalf("per-child rates = %v, %v, want 10, 30",
			qr.Series[0].Points[0].V, qr.Series[1].Points[0].V)
	}
	// Aggregated rate: sum collapses to one 40/s series.
	qr = getQuery(t, mux, "/query?series=link_packets_total&func=sum&rate=1&"+rangeParams())
	if len(qr.Series) != 1 || qr.Series[0].Points[0].V != 40 {
		t.Fatalf("sum rate = %+v, want one 40/s series", qr.Series)
	}
	// Child filter narrows to one series.
	qr = getQuery(t, mux, "/query?series=link_packets_total&child=link%3D1&"+rangeParams())
	if len(qr.Series) != 1 || qr.Series[0].Child != "link=1" {
		t.Fatalf("child filter = %+v", qr.Series)
	}
}

func TestQueryQuantile(t *testing.T) {
	qr := getQuery(t, queryMux(t), "/query?series=flush_seconds&func=quantile&q=0.5&"+rangeParams())
	if len(qr.Series) != 1 || qr.Series[0].Kind != "quantile" || len(qr.Series[0].Points) != 1 {
		t.Fatalf("quantile query = %+v", qr.Series)
	}
	// Every observation is 0.05, interpolated within the (0.01, 0.1]
	// bucket; the median must land inside it.
	if v := qr.Series[0].Points[0].V; v <= 0.01 || v > 0.1 {
		t.Fatalf("median = %v, want within (0.01, 0.1]", v)
	}
}

func TestQueryUnknownSeriesIsEmpty(t *testing.T) {
	qr := getQuery(t, queryMux(t), "/query?series=no_such_series&"+rangeParams())
	if qr.Series == nil || len(qr.Series) != 0 {
		t.Fatalf("unknown series = %+v, want empty (not null)", qr.Series)
	}
}

func TestQueryBadParams(t *testing.T) {
	mux := queryMux(t)
	for _, path := range []string{
		"/query",                                        // no series
		"/query?series=events_total&func=median",        // unknown func
		"/query?series=events_total&window=huge",        // bad window
		"/query?series=events_total&from=soon",          // bad time
		"/query?series=events_total&from=9&to=1",        // inverted range
		"/query?series=flush_seconds&func=quantile&q=2", // quantile out of range
	} {
		if res, body := get(t, mux, path); res.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400\n%s", path, res.StatusCode, body)
		}
	}
}

func TestDashServesSelfContainedPage(t *testing.T) {
	res, body := get(t, queryMux(t), "/dash")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("dash: status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("dash Content-Type = %q", ct)
	}
	for _, want := range []string{"<canvas", "/query?series=", "stream_events_total", "setInterval"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dash page missing %q", want)
		}
	}
	// Self-contained: no external scripts, stylesheets, or images.
	for _, forbid := range []string{"src=\"http", "href=\"http", "<link", "<img"} {
		if strings.Contains(body, forbid) {
			t.Fatalf("dash page references an external asset (%q)", forbid)
		}
	}
}

func TestRuntimeGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	registerRuntimeGauges(reg)
	snap := reg.Snapshot()
	if g, ok := snap["go_goroutines"].(float64); !ok || g < 1 {
		t.Fatalf("go_goroutines = %v", snap["go_goroutines"])
	}
	if g, ok := snap["go_heap_alloc_bytes"].(float64); !ok || g <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %v", snap["go_heap_alloc_bytes"])
	}
	if _, ok := snap["go_gc_pause_seconds_total"].(float64); !ok {
		t.Fatalf("go_gc_pause_seconds_total = %v", snap["go_gc_pause_seconds_total"])
	}
}
