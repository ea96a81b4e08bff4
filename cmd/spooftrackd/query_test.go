package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
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
// a counter at 5/s and a two-child vector at 10/s and 30/s, scraped once
// per second for a minute.
func queryMux(t testing.TB) *http.ServeMux {
	t.Helper()
	reg := metrics.NewRegistry()
	ev := reg.Counter("events_total")
	cv := reg.CounterVec("link_packets_total", "link")
	db := tsdb.New(tsdb.Options{Registry: reg})
	for i := 0; i <= 60; i++ {
		ev.Add(5)
		cv.With("0").Add(10)
		cv.With("1").Add(30)
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

func TestQueryUnknownSeriesIsEmpty(t *testing.T) {
	qr := getQuery(t, queryMux(t), "/query?series=no_such_series&"+rangeParams())
	if qr.Series == nil || len(qr.Series) != 0 {
		t.Fatalf("unknown series = %+v, want empty (not null)", qr.Series)
	}
}

func TestQueryBadParams(t *testing.T) {
	mux := queryMux(t)
	for _, path := range []string{
		"/query",                                   // no series
		"/query?series=events_total&func=median",   // unknown func
		"/query?series=events_total&window=huge",   // bad window
		"/query?series=events_total&from=soon",     // bad time
		"/query?series=events_total&from=9&to=1",   // inverted range
		"/query?series=events_total&func=quantile", // no quantile function
		// Not finite, or milliseconds past int64: no instant at all.
		"/query?series=events_total&to=NaN",
		"/query?series=events_total&from=NaN&to=10",
		"/query?series=events_total&to=Inf",
		"/query?series=events_total&from=-Inf",
		"/query?series=events_total&to=1e300",
		"/query?series=events_total&from=-1e300&to=10",
		"/query?series=events_total&to=9223372036854776", // 2^63 ms
		// A default from that wraps past the int64 milliseconds.
		"/query?series=events_total&to=-9223372036854775",
	} {
		if res, body := get(t, mux, path); res.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400\n%s", path, res.StatusCode, body)
		}
	}
}

// FuzzQuery drives /query with arbitrary parameters over the fixture
// history: it must not panic, must answer 200 or 400, and every 200 must
// decode to a range with from < to.
func FuzzQuery(f *testing.F) {
	from, to := fmt.Sprint(queryBase.Unix()), fmt.Sprint(queryBase.Add(time.Minute).Unix())
	for _, seed := range [][6]string{
		{"events_total", from, to, "", "", ""},
		{"events_total", "", "", "5m", "rate", ""},
		{"link_packets_total", from, to, "", "sum", ""},
		{"flush_seconds", "", "2023-11-14T22:14:20Z", "1h", "quantile", "0.5"},
		{"events_total", "", "NaN", "", "", ""},
		{"events_total", "", "-9223372036854775", "", "max", ""},
		{"events_total", "1e300", "Inf", "", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4], seed[5])
	}
	mux := queryMux(f)
	f.Fuzz(func(t *testing.T, series, from, to, window, fn, q string) {
		qs := url.Values{}
		for k, v := range map[string]string{"series": series, "from": from, "to": to, "window": window, "func": fn, "q": q} {
			if v != "" {
				qs.Set(k, v)
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/query", nil)
		req.URL.RawQuery = qs.Encode()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			var qr queryResult
			if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
				t.Fatalf("%s: 200 body does not decode: %v\n%s", req.URL, err, rec.Body)
			}
			if qr.From >= qr.To {
				t.Fatalf("%s: 200 with from %d >= to %d", req.URL, qr.From, qr.To)
			}
		default:
			t.Fatalf("%s: status %d, want 200 or 400\n%s", req.URL, rec.Code, rec.Body)
		}
	})
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
