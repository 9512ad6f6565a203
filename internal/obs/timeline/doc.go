// Package timeline is the history plane of the observability stack: it
// turns the registry's point-in-time instruments into bounded, queryable
// time series, the same way the paper turns a data stream into statistics —
// as a side effect of movement that was happening anyway, in fixed memory.
//
// Three cooperating pieces:
//
//   - A multi-resolution ring (default 1s×120, 10s×360, 5m×288) samples
//     every registered instrument once per base period, off the hot path.
//     Counters are recorded delta-aware (per-window rates survive counter
//     monotonicity), gauges keep their last reading, and distributions are
//     window-merged: each window accumulates the per-bin count deltas in a
//     bins.Vector mirroring the Distribution's fixed HDR geometry, coarse
//     windows fold sealed base windows in via bins.MergeAll, and per-window
//     p50/p90/p99 come out of hist.BuildEquiDepthFromBins — the repo's own
//     equi-depth builder summarising the repo's own telemetry history.
//     Per-window HyperLogLog blocks track distinct tables and clients
//     (merged into coarser windows with the sketch package's pointwise-max
//     HLL merge), exposed as the synthetic timeline_distinct_* series.
//
//   - The flight recorder (obs.FlightRecorder) is offered every published
//     scan record; the timeline drains its entity feed each tick for the
//     distinct-entity sketches (every offered record, sampled away or not),
//     and /events serves its tail-sampled ring directly.
//
//   - An anomaly engine runs burn-rate-style detectors over the base ring
//     after every sealed window: throughput drop versus a trailing mean,
//     quarantine/degradation ratios, hwprof-consistency drift, WAL drops,
//     and checkpoint age. A trip (debounced per detector) appends a verdict
//     surfaced through /healthz and /anomalies, and — when a bundle
//     directory is configured — writes a self-contained debug bundle:
//     anomaly verdict, a timeline slice, the flight-recorder dump, the
//     simulated-hardware profile, and a live heap profile, both profiles in
//     pprof format `go tool pprof` accepts.
//
// Everything is fixed-memory: rings never grow, the series population is
// capped, sealed distribution windows keep five numbers (count, sum, three
// quantiles) rather than their bins, and only the currently open window per
// resolution holds a bin vector or an HLL. A nil *Timeline no-ops on every
// method, so a timeline-disabled build stays on the nil-obs baseline.
package timeline
