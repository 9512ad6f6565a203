package timeline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"streamhist/internal/obs"
)

// bundleManifest is the top-level anomaly.json of a debug bundle: the
// verdict that tripped, plus enough identity to line the bundle up with
// logs and traces from the same instant.
type bundleManifest struct {
	Anomaly   Anomaly  `json:"anomaly"`
	WrittenMS int64    `json:"written_ms"`
	Trips     uint64   `json:"trips_total"`
	Files     []string `json:"files"`
}

// writeBundleLocked writes a self-contained debug bundle for a — a directory
// under the bundle directory holding the verdict, a full timeline slice, the
// tracer's tail-sampled records, and heap + simulated-hardware profiles in
// pprof format — then prunes the oldest bundles beyond the limit and
// records the bundle path in a.Bundle. Caller holds t.mu; bundle writes are
// rare (cooldown-debounced) so the held lock is cheaper than a consistent
// copy of every series.
func (t *Timeline) writeBundleLocked(a *Anomaly, now time.Time) {
	dir := t.bundleDir
	if dir == "" {
		return
	}
	t.eng.bundleSeq++
	name := filepath.Join(dir, bundleName(t.eng.bundleSeq, a.Detector, now))
	if err := os.MkdirAll(name, 0o755); err != nil {
		t.o.Logger().Warn("debug bundle failed", "dir", name, "err", err)
		return
	}

	man := bundleManifest{Anomaly: *a, WrittenMS: now.UnixMilli(), Trips: t.eng.trips}

	// Timeline slice: every tracked series at every resolution.
	var slice []SeriesData
	for _, s := range t.order {
		for _, r := range t.res {
			if sd, ok := t.seriesLocked(s.name, r.Label()); ok {
				slice = append(slice, sd)
			}
		}
	}
	if writeJSON(filepath.Join(name, "timeline.json"), slice) == nil {
		man.Files = append(man.Files, "timeline.json")
	}

	// Every scan record tail sampling retained.
	if evs := t.o.Tracer().Tail(obs.TailRing); len(evs) > 0 {
		if writeJSON(filepath.Join(name, "events.json"), evs) == nil {
			man.Files = append(man.Files, "events.json")
		}
	}

	// Exemplar join: every distribution's retained exemplar, resolved to its
	// assembled distributed trace when the tracer still holds it — the bundle
	// then carries not just "the tail was this slow" but the exact traced
	// scan that put it there, spans and all.
	if tracer := t.o.Tracer(); tracer != nil {
		type exemplarEntry struct {
			Metric  string              `json:"metric"`
			Value   int64               `json:"value"`
			TraceID string              `json:"trace_id"`
			Trace   *obs.AssembledTrace `json:"trace,omitempty"`
		}
		var exs []exemplarEntry
		for _, s := range t.o.Registry().Samples(nil) {
			if s.Kind != obs.SampleDist {
				continue
			}
			ex, ok := s.Dist.Exemplar()
			if !ok {
				continue
			}
			exs = append(exs, exemplarEntry{
				Metric:  s.Name,
				Value:   ex.Value,
				TraceID: fmt.Sprintf("%016x", ex.TraceID),
				Trace:   tracer.Assemble(ex.TraceID),
			})
		}
		if len(exs) > 0 && writeJSON(filepath.Join(name, "exemplars.json"), exs) == nil {
			man.Files = append(man.Files, "exemplars.json")
		}
	}

	// Recent anomaly history (this trip is appended after the bundle write,
	// so the file holds the trips that preceded it).
	if hist := t.eng.ring.Oldest(t.eng.ring.Len()); len(hist) > 0 {
		if writeJSON(filepath.Join(name, "anomalies.json"), hist) == nil {
			man.Files = append(man.Files, "anomalies.json")
		}
	}

	// Simulated-hardware cycle profile, pprof wire format.
	if p := t.o.Profiler(); p != nil && p.TotalCycles() > 0 {
		if f, err := os.Create(filepath.Join(name, "hwprof.pb.gz")); err == nil {
			if p.Snapshot().WritePprof(f) == nil {
				man.Files = append(man.Files, "hwprof.pb.gz")
			}
			f.Close()
		}
	}

	// Live heap profile — standard runtime pprof, always `go tool pprof`-able.
	if f, err := os.Create(filepath.Join(name, "heap.pb.gz")); err == nil {
		if pprof.WriteHeapProfile(f) == nil {
			man.Files = append(man.Files, "heap.pb.gz")
		}
		f.Close()
	}

	// Goroutine dump for hang diagnosis.
	if f, err := os.Create(filepath.Join(name, "goroutines.txt")); err == nil {
		if pprof.Lookup("goroutine").WriteTo(f, 1) == nil {
			man.Files = append(man.Files, "goroutines.txt")
		}
		f.Close()
	}

	a.Bundle = name
	man.Anomaly.Bundle = name
	writeJSON(filepath.Join(name, "anomaly.json"), man)

	t.pruneBundles(dir)
}

// bundleName builds a sortable directory name: zero-padded sequence first so
// lexical order is creation order, then the detector and a wall-clock stamp
// for the humans.
func bundleName(seq uint64, detector string, now time.Time) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, detector)
	return fmt.Sprintf("bundle-%06d-%s-%s", seq, safe, now.UTC().Format("20060102T150405"))
}

// pruneBundles removes the oldest bundle directories beyond the limit.
func (t *Timeline) pruneBundles(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			names = append(names, e.Name())
		}
	}
	if len(names) <= t.bundleLimit {
		return
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-t.bundleLimit] {
		os.RemoveAll(filepath.Join(dir, n))
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
