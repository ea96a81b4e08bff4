package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of the Prometheus text
// exposition format (version 0.0.4), the format WritePrometheus emits.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus emits every metric in the registry in Prometheus text
// exposition format, in registration order. Scalars map directly
// (Counter -> counter, GaugeFunc -> gauge); histograms emit the
// conventional cumulative _bucket series (one per bound plus le="+Inf",
// which always equals _count) and _sum/_count; vectors emit one series
// per child with its label set. Metric and label names are sanitized to
// the Prometheus grammar and label values are escaped, so arbitrary
// registry names cannot produce an unscrapable page.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	vars := make(map[string]any, len(r.vars))
	for name, v := range r.vars {
		vars[name] = v
	}
	r.mu.RUnlock()

	for _, name := range names {
		pname := sanitizeMetricName(name)
		var err error
		switch m := vars[name].(type) {
		case *Counter:
			err = writeScalar(w, pname, "counter", nil, nil, float64(m.Value()))
		case *GaugeFunc:
			err = writeScalar(w, pname, "gauge", nil, nil, m.Value())
		case *Histogram:
			err = writeHistogram(w, pname, nil, nil, m, true)
		case *CounterVec:
			if _, err = fmt.Fprintf(w, "# TYPE %s counter\n", pname); err == nil {
				labels := sanitizeLabelNames(m.labels)
				for _, c := range m.children() {
					if err = writeSeries(w, pname, labels, c.values, float64(c.metric.Value())); err != nil {
						break
					}
				}
			}
		case *HistogramVec:
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", pname); err == nil {
				labels := sanitizeLabelNames(m.labels)
				for _, c := range m.children() {
					if err = writeHistogram(w, pname, labels, c.values, c.metric, false); err != nil {
						break
					}
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeScalar emits a TYPE header and one sample.
func writeScalar(w io.Writer, name, typ string, labels, values []string, v float64) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
		return err
	}
	return writeSeries(w, name, labels, values, v)
}

// writeSeries emits one sample line: name{labels} value.
func writeSeries(w io.Writer, name string, labels, values []string, v float64) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(labels, values, "", 0), formatValue(v))
	return err
}

// writeHistogram emits the cumulative _bucket/_sum/_count triple for one
// histogram, with the child's label set (if any) plus the le label on
// buckets. withType emits the TYPE header (once per family).
func writeHistogram(w io.Writer, name string, labels, values []string, h *Histogram, withType bool) error {
	if withType {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		ls := renderLabels(labels, values, "le", bound)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, ls, cum); err != nil {
			return err
		}
	}
	// le="+Inf" includes the overflow bucket and equals _count by
	// construction.
	count := h.Count()
	ls := renderLabels(labels, values, "le", math.Inf(1))
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, ls, count); err != nil {
		return err
	}
	plain := renderLabels(labels, values, "", 0)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, plain, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, plain, count)
	return err
}

// renderLabels renders a {name="value",...} block, optionally appending
// an le label (histogram buckets). Empty when there are no labels.
func renderLabels(labels, values []string, leName string, le float64) string {
	if len(labels) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatValue(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip decimal, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sanitizeMetricName maps an arbitrary registry name onto the Prometheus
// metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	return sanitizeName(name, true)
}

// sanitizeLabelNames maps label names onto [a-zA-Z_][a-zA-Z0-9_]* (no
// colon, unlike metric names).
func sanitizeLabelNames(labels []string) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = sanitizeName(l, false)
	}
	return out
}

func sanitizeName(name string, allowColon bool) string {
	if name == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (allowColon && c == ':') ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			if b == nil {
				b = []byte(name)
			}
			b[i] = '_'
		}
	}
	if b == nil {
		return name
	}
	return string(b)
}

// escapeLabelValue escapes backslash, double quote, and newline — the
// three characters the text format requires escaping in label values.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// wantsPrometheus decides the exposition format for a /metrics request:
// an explicit ?format= wins, then the Accept header — any text/plain or
// OpenMetrics media type selects Prometheus text. The default stays
// JSON so pre-existing consumers see identical bytes.
func wantsPrometheus(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	for _, part := range strings.Split(req.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if mt == "text/plain" || mt == "application/openmetrics-text" {
			return true
		}
	}
	return false
}
