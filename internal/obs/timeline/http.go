package timeline

import (
	"fmt"
	"net/http"
	"strconv"

	"streamhist/internal/obs"
)

// Index is what /timeline answers without ?metric=: the resolution labels,
// finest first, the tracked metrics, the anomaly trip count, and how many
// instruments the series cap kept out.
type Index struct {
	Resolutions []string `json:"resolutions"`
	Metrics     []string `json:"metrics"`
	Trips       uint64   `json:"anomaly_trips"`
	Dropped     int      `json:"series_dropped"`
}

// Handler extends obs.Handler with the timeline surface:
//
//	/timeline                 index: resolutions, tracked metrics, trip count
//	/timeline?metric=&res=    one series' sealed windows as JSON, oldest first
//	                          (res defaults to the base tier)
//	/anomalies                recorded detector trips, newest first (?n=K)
//	/healthz                  the obs health check, decorated with anomaly
//	                          lines — still 200 so probes keyed on liveness
//	                          don't flap on a tripped detector
//
// Everything obs.Handler serves (/metrics, /scans, /events, /debug/*) passes
// through unchanged. A nil *Timeline returns obs.Handler unwrapped.
func Handler(t *Timeline, o *obs.Obs, healthy func() error) http.Handler {
	base := obs.Handler(o, healthy)
	if t == nil {
		return base
	}
	mux := http.NewServeMux()
	mux.Handle("/", base)

	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		metric := r.URL.Query().Get("metric")
		if metric == "" {
			obs.WriteJSON(w, Index{t.Resolutions(), t.Metrics(), t.Trips(), t.Dropped()})
			return
		}
		sd, ok := t.Series(metric, r.URL.Query().Get("res"))
		if !ok {
			http.Error(w, fmt.Sprintf("timeline: unknown metric %q or resolution %q",
				metric, r.URL.Query().Get("res")), http.StatusNotFound)
			return
		}
		obs.WriteJSON(w, sd)
	})

	mux.HandleFunc("/anomalies", func(w http.ResponseWriter, r *http.Request) {
		n := defaultAnomalyRing
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, "anomalies: n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		out := t.Anomalies(n)
		if out == nil {
			out = []Anomaly{}
		}
		obs.WriteJSON(w, out)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthy != nil {
			if err := healthy(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		fmt.Fprintf(w, "anomaly_trips %d\n", t.Trips())
		for _, a := range t.Anomalies(3) {
			fmt.Fprintf(w, "anomaly detector=%s metric=%s value=%g threshold=%g t_ms=%d bundle=%s\n",
				a.Detector, a.Metric, a.Value, a.Threshold, a.TimeMS, a.Bundle)
		}
	})

	return mux
}
