package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Handler mounts the live introspection surface over an Obs bundle:
//
//	/metrics        Prometheus text exposition of every registered metric
//	/healthz        200 "ok" (or 503 + reason when healthy() returns an error)
//	/scans          the most recent scan records as JSON, newest first (?n=K,
//	                default 32): every scan, evicted strictly by age
//	/traces         one assembled distributed trace as JSON (?id=<trace id>,
//	                hex or decimal): client-reported spans stitched with every
//	                server scan that continued the trace, redials included
//	/debug/tracez   the same assembled trace as Chrome trace-event JSON,
//	                loadable in Perfetto / chrome://tracing (?id=<trace id>)
//	/events         the same records through the tracer's tail-sampled ring,
//	                newest first (?n=K, default 64): anomalous scans always
//	                kept, healthy ones 1-in-TailSample
//	/debug/hwprof   simulated-hardware cycle profile in pprof wire format
//	                (?seconds=N for a delta window, ?format=json for the
//	                JSON form histcli's renderers consume)
//	/debug/pprof/*  the standard Go profiling endpoints
//
// healthy may be nil (always healthy). The handler holds no locks across
// requests and is safe to serve concurrently with the instrumented workload.
func Handler(o *Obs, healthy func() error) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Registry().WritePrometheus(w)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthy != nil {
			if err := healthy(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})

	// The tracer is looked up per request, so a bundle whose Trace is swapped
	// after the handler is mounted is still served from the live one.
	mux.HandleFunc("/scans", recordsHandler("scans", 32, func(n int) []*ScanRecord { return o.Tracer().Recent(n) }))

	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		at, ok := assembleParam(w, r, o)
		if !ok {
			return
		}
		WriteJSON(w, at)
	})

	mux.HandleFunc("/debug/tracez", func(w http.ResponseWriter, r *http.Request) {
		at, ok := assembleParam(w, r, o)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		WriteTraceEvents(w, at)
	})

	mux.HandleFunc("/events", recordsHandler("events", 64, func(n int) []*ScanRecord { return o.Tracer().Tail(n) }))

	mux.HandleFunc("/debug/hwprof", func(w http.ResponseWriter, r *http.Request) {
		p := o.Profiler()
		if p == nil {
			http.Error(w, "hwprof: no profiler wired", http.StatusServiceUnavailable)
			return
		}
		var seconds int
		if q := r.URL.Query().Get("seconds"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "hwprof: seconds must be a non-negative integer", http.StatusBadRequest)
				return
			}
			seconds = v
		}
		prof := p.Snapshot()
		if seconds > 0 {
			// Delta profile: what accumulated over the window, in the style
			// of /debug/pprof/profile?seconds=N. The wait is bounded by the
			// request context so a dropped client frees the handler.
			before := prof
			select {
			case <-time.After(time.Duration(seconds) * time.Second):
			case <-r.Context().Done():
				return
			}
			prof = p.Snapshot().Sub(before)
		}
		if r.URL.Query().Get("format") == "json" {
			WriteJSON(w, prof)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="hwprof.pb.gz"`)
		prof.WritePprof(w)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// recordsHandler serves one view over the published scan records: up to ?n=
// of them (def when absent), newest first, in the record's one JSON shape.
func recordsHandler(name string, def int, recent func(int) []*ScanRecord) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := def
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, name+": n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		recs := recent(n)
		if recs == nil {
			recs = []*ScanRecord{}
		}
		WriteJSON(w, recs)
	}
}

// WriteJSON is how every introspection endpoint answers: indented JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ParseTraceID parses a trace ID as printed by the tools: a 16-character
// string is the canonical zero-padded hex (%016x), a 0x-prefixed one is hex,
// and anything else is decimal.
func ParseTraceID(s string) (uint64, error) {
	switch {
	case len(s) == 16:
		return strconv.ParseUint(s, 16, 64)
	case strings.HasPrefix(s, "0x"), strings.HasPrefix(s, "0X"):
		return strconv.ParseUint(s[2:], 16, 64)
	default:
		return strconv.ParseUint(s, 10, 64)
	}
}

// assembleParam resolves the ?id= query of /traces and /debug/tracez into
// an assembled trace, writing the error response (400 malformed, 404
// unknown) itself when it cannot.
func assembleParam(w http.ResponseWriter, r *http.Request, o *Obs) (*AssembledTrace, bool) {
	q := r.URL.Query().Get("id")
	if q == "" {
		http.Error(w, "traces: missing id parameter", http.StatusBadRequest)
		return nil, false
	}
	id, err := ParseTraceID(q)
	if err != nil || id == 0 {
		http.Error(w, "traces: id must be 16 hex digits, 0x-prefixed hex, or decimal", http.StatusBadRequest)
		return nil, false
	}
	at := o.Tracer().Assemble(id)
	if at == nil {
		http.Error(w, "traces: unknown trace id", http.StatusNotFound)
		return nil, false
	}
	return at, true
}
