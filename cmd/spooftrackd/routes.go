package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"

	"spooftrack"
	"spooftrack/internal/fault"
	"spooftrack/internal/metrics"
	"spooftrack/internal/peering"
	"spooftrack/internal/probe"
	"spooftrack/internal/provenance"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
	"spooftrack/internal/watch"
)

// surface is the daemon's HTTP surface, assembled from the components
// that own its routes. inj, probe, led and dog may be nil (no fault
// profile, -probe-interval 0, -ledger=false, a controller's missing
// watchdog): their endpoints then answer 404 and say which flag turns
// them on.
type surface struct {
	obs    observability
	led    *provenance.Ledger
	probe  *probeView
	dog    *watch.Watchdog
	inj    *fault.Injector
	health *peering.LinkHealth
	place  placement
}

func (s surface) mux() *http.ServeMux {
	mux := http.NewServeMux()
	s.obs.routes(mux)
	provenanceRoutes(mux, s.led)
	s.probe.routes(mux)
	sloRoutes(mux, s.dog, s.place.degraded)
	faultRoutes(mux, s.inj, s.health, s.place.degraded)
	s.place.routes(mux)
	return mux
}

// observability is the process's instruments: the metric registry, the
// span journal, and (unless -scrape-interval 0 left it nil) the
// embedded metric history everything windowed hangs off — /query,
// /dash, windowed SLO rates, burn-rate rules, breach-bundle context.
type observability struct {
	reg    *metrics.Registry
	tracer *trace.Tracer
	db     *tsdb.DB
}

func (o observability) routes(mux *http.ServeMux) {
	mux.Handle("/metrics", o.reg.Handler())
	mux.HandleFunc("/query", queryHandler(o.db))
	mux.HandleFunc("/dash", func(w http.ResponseWriter, r *http.Request) {
		if o.db == nil {
			http.Error(w, "no metric history (-scrape-interval 0)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = fmt.Fprint(w, dashHTML)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "", "chrome":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="spooftrackd-trace.json"`)
			_ = o.tracer.WriteChromeTrace(w)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = o.tracer.WriteJSON(w)
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want chrome or json)", format), http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Liveness is process-up only.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
}

// provenanceRoutes serves the decision ledger. /explain lists the
// recorded verdicts (or, with ?format=ledger / ?format=dot, exports the
// full timeline or the provenance graph); /explain/{cluster} renders
// the complete evidence chain behind one cluster of the final verdict,
// with an embedded replay check proving the chain reproduces it.
func provenanceRoutes(mux *http.ServeMux, led *provenance.Ledger) {
	explain := func(w http.ResponseWriter, r *http.Request) {
		if !led.Enabled() {
			http.Error(w, "no provenance ledger (-ledger=false)", http.StatusNotFound)
			return
		}
		e := led.Export()
		cluster, one := strings.CutPrefix(r.URL.Path, "/explain/")
		format := r.URL.Query().Get("format")
		switch {
		case one:
			id, err := strconv.Atoi(cluster)
			if err != nil {
				http.Error(w, "cluster id must be an integer: /explain/{cluster}", http.StatusBadRequest)
				return
			}
			ex, err := e.Explain(id)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			writeJSON(w, ex)
		case format == "":
			writeJSON(w, map[string]any{"events": len(e.Events), "verdicts": e.Verdicts()})
		case format == "ledger", format == "json":
			w.Header().Set("Content-Type", "application/json")
			_ = e.WriteJSON(w)
		case format == "dot":
			w.Header().Set("Content-Type", "text/vnd.graphviz")
			_ = e.WriteDOT(w)
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want ledger, json, or dot)", format), http.StatusBadRequest)
		}
	}
	mux.HandleFunc("/explain", explain)
	mux.HandleFunc("/explain/", explain)
}

// probeStatus is the /probe payload: the prober's scan status plus the
// agreement/conflict audit between the probe channel's measured ingress
// links and the propagation-derived catchment vector.
type probeStatus struct {
	probe.Status
	Audit probe.ChannelAudit `json:"audit"`
}

func (pv *probeView) routes(mux *http.ServeMux) {
	mux.HandleFunc("/probe", func(w http.ResponseWriter, r *http.Request) {
		if pv == nil {
			http.Error(w, "no prober configured (-probe-interval 0)", http.StatusNotFound)
			return
		}
		ps := probeStatus{Status: pv.prober.Status()}
		pv.prober.Inference(func(inf *probe.SAVInference) {
			ps.Audit = probe.Audit(probe.BuildChannel(inf, 0), pv.catchment)
		})
		writeJSON(w, ps)
	})
}

// unready answers /readyz with 503 and the reason as JSON.
func unready(w http.ResponseWriter, why map[string]any) {
	why["ready"] = false
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(why)
}

// sloRoutes serves the watchdog and the readiness it feeds. Readiness
// is "no SLO rule in breach (when there is a watchdog) and the
// placement's own gate", in every placement, so an orchestrator pulls a
// degraded daemon out of rotation without restarting it.
func sloRoutes(mux *http.ServeMux, dog *watch.Watchdog, degraded func() (bool, int64)) {
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if dog == nil {
			http.Error(w, "no watchdog configured", http.StatusNotFound)
			return
		}
		writeJSON(w, dog.Status())
	})
	mux.HandleFunc("/debug/bundle", func(w http.ResponseWriter, r *http.Request) {
		if dog == nil {
			http.Error(w, "no watchdog configured", http.StatusNotFound)
			return
		}
		path := dog.LastBundlePath()
		if path == "" {
			http.Error(w, "no diagnostic bundle captured yet", http.StatusNotFound)
			return
		}
		data, err := os.ReadFile(path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Bundle-Path", path)
		_, _ = w.Write(data)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if dog != nil && !dog.Healthy() {
			unready(w, map[string]any{"breaches": dog.BreachingRules()})
			return
		}
		// Shedding, or a round lost with an evicted shard: the placement
		// is up but its evidence is incomplete.
		if deg, lost := degraded(); deg {
			unready(w, map[string]any{"degraded": true, "dropped_events": lost})
			return
		}
		fmt.Fprintln(w, "ready")
	})
}

// faultsStatus is the /faults payload: injector stats (profile "none"
// when no fault profile is active), per-link circuit-breaker health, and
// the placement's degradation state.
type faultsStatus struct {
	Profile       string                   `json:"profile"`
	Seed          uint64                   `json:"seed,omitempty"`
	Injected      map[string]int64         `json:"injected,omitempty"`
	Links         []peering.LinkHealthStat `json:"links,omitempty"`
	Quarantined   []spooftrack.LinkID      `json:"quarantined,omitempty"`
	Degraded      bool                     `json:"degraded"`
	DroppedEvents int64                    `json:"dropped_events"`
}

func faultRoutes(mux *http.ServeMux, inj *fault.Injector, health *peering.LinkHealth, degraded func() (bool, int64)) {
	mux.HandleFunc("/faults", func(w http.ResponseWriter, r *http.Request) {
		fs := faultsStatus{Profile: "none"}
		fs.Degraded, fs.DroppedEvents = degraded()
		if inj != nil {
			st := inj.Stats()
			fs.Profile, fs.Seed, fs.Injected = st.Profile, st.Seed, st.Counts
		}
		fs.Links, fs.Quarantined = health.Snapshot(), health.Quarantined()
		writeJSON(w, fs)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
