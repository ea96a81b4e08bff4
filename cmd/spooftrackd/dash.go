package main

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"spooftrack/internal/tsdb"
)

// queryResult is the /query payload: the resolved time range (unix
// milliseconds, matching the point timestamps) and the matched series.
type queryResult struct {
	From   int64             `json:"from"`
	To     int64             `json:"to"`
	Series []tsdb.SeriesData `json:"series"`
}

// queryTime reads a /query time parameter — unix seconds (integer or
// fractional) or RFC3339 — answering def when it is absent. A number
// that is not finite, or whose milliseconds overflow an int64, is an
// error rather than a wrapped instant.
func queryTime(qs url.Values, key string, def time.Time) (time.Time, error) {
	s := qs.Get(key)
	if s == "" {
		return def, nil
	}
	if sec, err := strconv.ParseFloat(s, 64); err == nil {
		// Both bounds are exact float64s; NaN fails the comparison.
		if ms := sec * 1000; ms >= -(1<<63) && ms < 1<<63 {
			return time.UnixMilli(int64(ms)), nil
		}
		return time.Time{}, fmt.Errorf("bad %s %q: unix seconds not finite or out of range", key, s)
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return t, fmt.Errorf("bad %s %q: want unix seconds or RFC3339", key, s)
	}
	return t, nil
}

// queryHandler serves range queries over the embedded metric history:
//
//	/query?series=<family>[&child=k=v][&from=..][&to=..][&window=5m]
//	      [&func=raw|rate|sum|max|quantile][&q=0.99][&rate=1]
//
// from/to are unix seconds or RFC3339; to defaults to now and from to
// to−window (window defaults to 15m). func=rate plots the per-second,
// counter-reset-aware derivative; sum/max collapse a vector's children
// (combine with rate=1 for an aggregated rate); quantile computes a
// quantile-over-time on a histogram family. Unknown families answer
// with an empty series list, not an error.
func queryHandler(db *tsdb.DB) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query()
		q := tsdb.Query{Series: qs.Get("series"), Child: qs.Get("child")}
		if q.Series == "" {
			http.Error(w, "missing series parameter", http.StatusBadRequest)
			return
		}
		window := 15 * time.Minute
		if ws := qs.Get("window"); ws != "" {
			d, err := time.ParseDuration(ws)
			if err != nil || d <= 0 {
				http.Error(w, fmt.Sprintf("bad window %q: want a positive Go duration", ws), http.StatusBadRequest)
				return
			}
			window = d
		}
		to, err := queryTime(qs, "to", time.Now())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		from, err := queryTime(qs, "from", to.Add(-window))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Compared in the milliseconds the payload echoes: a default from
		// that wraps below the int64 range, or a sub-millisecond range,
		// is no range.
		if from.UnixMilli() >= to.UnixMilli() {
			http.Error(w, "from must precede to", http.StatusBadRequest)
			return
		}
		switch fn := qs.Get("func"); fn {
		case "", "raw":
		case "rate":
			q.Rate = true
		case "sum", "max":
			q.Agg = fn
		case "quantile":
			q.Quantile = 0.99
			if s := qs.Get("q"); s != "" {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil || v <= 0 || v >= 1 {
					http.Error(w, fmt.Sprintf("bad q %q: want a quantile in (0,1)", s), http.StatusBadRequest)
					return
				}
				q.Quantile = v
			}
		default:
			http.Error(w, fmt.Sprintf("unknown func %q (want raw, rate, sum, max, or quantile)", fn), http.StatusBadRequest)
			return
		}
		if qs.Get("rate") == "1" {
			q.Rate = true
		}
		q.From, q.To = from, to
		series := db.Query(q)
		if series == nil {
			series = []tsdb.SeriesData{}
		}
		writeJSON(w, queryResult{From: from.UnixMilli(), To: to.UnixMilli(), Series: series})
	}
}

// dashHTML is the /dash page: a self-contained live dashboard (inline
// CSS and JS, no external assets) drawing canvas sparklines from /query
// polls. Every panel's query yields a full range (rates, gauges), so
// each draws the server-side history.
const dashHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>spooftrackd</title>
<style>
  body { background: #111418; color: #d7dce1; font: 13px/1.4 ui-monospace, Menlo, Consolas, monospace; margin: 24px; }
  h1 { font-size: 16px; font-weight: 600; margin: 0 0 4px; }
  .sub { color: #7a828c; margin-bottom: 20px; }
  .grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(320px, 1fr)); gap: 16px; }
  .panel { background: #1a1f26; border: 1px solid #2a313b; border-radius: 6px; padding: 12px 14px; }
  .panel h2 { font-size: 12px; font-weight: 500; color: #9aa3ad; margin: 0 0 6px; text-transform: uppercase; letter-spacing: .05em; }
  .val { font-size: 22px; margin-bottom: 6px; min-height: 28px; }
  .val.bad { color: #ff6b6b; }
  .val.ok { color: #69db7c; }
  canvas { width: 100%; height: 48px; display: block; }
  .err { color: #ff6b6b; }
</style>
</head>
<body>
<h1>spooftrackd live dashboard</h1>
<div class="sub">metric history via <code>/query</code> &middot; refreshes every 2s</div>
<div class="grid" id="grid"></div>
<script>
"use strict";
const fmtSI = v => {
  if (!isFinite(v)) return "–";
  const a = Math.abs(v);
  if (a >= 1e9) return (v/1e9).toFixed(2)+"G";
  if (a >= 1e6) return (v/1e6).toFixed(2)+"M";
  if (a >= 1e3) return (v/1e3).toFixed(2)+"k";
  if (a >= 1 || a === 0) return v.toFixed(2);
  if (a >= 1e-3) return (v*1e3).toFixed(2)+"m";
  return (v*1e6).toFixed(2)+"µ";
};

// Panels: url is the /query request; points(resp) yields the sparkline
// series.
const PANELS = [
  { title: "events / s", url: "/query?series=stream_events_total&func=rate&window=10m",
    points: r => r.series.length ? r.series[0].points : [] },
  { title: "probe coverage", url: "/query?series=probe_coverage&window=10m",
    points: r => r.series.length ? r.series[0].points : [] },
  { title: "degraded", url: "/query?series=stream_degraded&window=10m",
    points: r => r.series.length ? r.series[0].points : [],
    text: v => v > 0 ? "SHEDDING" : "ok", cls: v => v > 0 ? "bad" : "ok" },
];

const grid = document.getElementById("grid");
for (const p of PANELS) {
  const el = document.createElement("div");
  el.className = "panel";
  el.innerHTML = "<h2></h2><div class=val>–</div><canvas></canvas>";
  el.querySelector("h2").textContent = p.title;
  grid.appendChild(el);
  p.valEl = el.querySelector(".val");
  p.canvas = el.querySelector("canvas");
}

function draw(canvas, pts) {
  const w = canvas.width = canvas.clientWidth * devicePixelRatio;
  const h = canvas.height = canvas.clientHeight * devicePixelRatio;
  const ctx = canvas.getContext("2d");
  ctx.clearRect(0, 0, w, h);
  if (pts.length < 2) return;
  let lo = Infinity, hi = -Infinity;
  for (const p of pts) { lo = Math.min(lo, p.v); hi = Math.max(hi, p.v); }
  if (hi === lo) { hi += 1; lo -= 1; }
  const t0 = pts[0].t, t1 = pts[pts.length-1].t || t0 + 1;
  ctx.beginPath();
  pts.forEach((p, i) => {
    const x = (p.t - t0) / (t1 - t0 || 1) * (w - 2) + 1;
    const y = h - 3 - (p.v - lo) / (hi - lo) * (h - 6);
    i ? ctx.lineTo(x, y) : ctx.moveTo(x, y);
  });
  ctx.strokeStyle = "#4dabf7";
  ctx.lineWidth = 1.5 * devicePixelRatio;
  ctx.stroke();
}

async function tick() {
  for (const p of PANELS) {
    try {
      const r = await (await fetch(p.url)).json();
      const pts = p.points(r);
      const last = pts.length ? pts[pts.length-1].v : NaN;
      p.valEl.textContent = isFinite(last) ? (p.text ? p.text(last) : fmtSI(last)) : "no data";
      p.valEl.className = "val " + (p.cls && isFinite(last) ? p.cls(last) : "");
      draw(p.canvas, pts);
    } catch (e) {
      p.valEl.textContent = "error";
      p.valEl.className = "val err";
    }
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
