package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry exercising every exposition case:
// name sanitization, plain scalars, label escaping, cumulative buckets,
// and vectors of each kind.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("events_total").Add(42)
	r.Counter("weird.name/with-chars").Add(1) // sanitized
	settableGauge(r, "queue_depth").Set(7.5)
	r.GaugeFunc("computed", func() float64 { return 3 })
	h := r.Histogram("flush_seconds", 0.01, 0.1, 1)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5) // overflow: only in +Inf
	cv := r.CounterVec("link_packets_total", "link", "outcome")
	cv.With("0", "forwarded").Add(10)
	cv.With("1", "dropped").Add(2)
	cv.With("1", `esc"ape\me`+"\n").Add(1) // label escaping
	hv := r.HistogramVec("eval_seconds", []string{"config"}, 0.1, 1)
	hv.With("4").Observe(0.5)
	hv.With("4").Observe(2)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WritePrometheus output differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestPrometheusInfBucketEqualsCount verifies the histogram invariants
// on every _bucket series: cumulative (non-decreasing) buckets, and
// le="+Inf" exactly equal to _count.
func TestPrometheusInfBucketEqualsCount(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{} // series prefix (name+labels sans le) -> _count
	infs := map[string]int64{}
	last := map[string]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, valStr, _ := strings.Cut(line, " ")
		switch {
		case strings.Contains(name, "_bucket"):
			v, err := strconv.ParseInt(valStr, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", line, err)
			}
			key := stripLe(name)
			if v < last[key] {
				t.Fatalf("bucket series %q not cumulative: %d after %d", key, v, last[key])
			}
			last[key] = v
			if strings.Contains(name, `le="+Inf"`) {
				infs[key] = v
			}
		case strings.Contains(name, "_count"):
			v, _ := strconv.ParseInt(valStr, 10, 64)
			counts[strings.Replace(name, "_count", "_bucket", 1)] = v
		}
	}
	if len(infs) == 0 {
		t.Fatal("no +Inf buckets found")
	}
	for key, inf := range infs {
		if counts[key] != inf {
			t.Fatalf("series %q: +Inf bucket %d != _count %d", key, inf, counts[key])
		}
	}
}

// stripLe removes the le label from a _bucket series name, leaving the
// name plus the child labels.
func stripLe(name string) string {
	i := strings.Index(name, "le=\"")
	if i < 0 {
		return name
	}
	j := strings.Index(name[i+4:], "\"")
	rest := name[i+4+j+1:]
	pre := strings.TrimSuffix(strings.TrimSuffix(name[:i], ","), "{")
	if rest == "}" {
		if strings.Contains(pre, "{") {
			return pre + "}"
		}
		return pre
	}
	return pre + rest
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"ok_name":     "ok_name",
		"with:colon":  "with:colon",
		"dots.and/sl": "dots_and_sl",
		"9starts":     "_starts",
		"":            "_",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHandlerContentNegotiation(t *testing.T) {
	r := goldenRegistry()
	// Pin the export clock: the byte-compat check below serializes the
	// registry twice, and a real clock could cross a second boundary
	// between them.
	defer func(orig func() time.Time) { timeNow = orig }(timeNow)
	timeNow = func() time.Time { return time.Unix(1_700_000_000, 0) }

	// Default (no Accept) stays JSON — byte compatibility with existing
	// consumers.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default Content-Type = %q", ct)
	}
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("default body not JSON: %v", err)
	}
	var direct bytes.Buffer
	if err := r.WriteJSON(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), direct.Bytes()) {
		t.Fatal("handler JSON differs from WriteJSON output")
	}

	// Accept: text/plain selects the Prometheus text format.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("text/plain Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE events_total counter") {
		t.Fatalf("prometheus body missing TYPE line:\n%s", rec.Body.String())
	}

	// The Prometheus scraper's real Accept header.
	req = httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("scraper Accept Content-Type = %q", ct)
	}

	// Explicit ?format= overrides.
	for format, wantCT := range map[string]string{"prometheus": PrometheusContentType, "json": "application/json"} {
		req = httptest.NewRequest("GET", fmt.Sprintf("/metrics?format=%s", format), nil)
		req.Header.Set("Accept", "*/*")
		rec = httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); ct != wantCT {
			t.Fatalf("?format=%s Content-Type = %q, want %q", format, ct, wantCT)
		}
	}
}
