// Package timeline is the history plane of the observability stack: it
// turns the registry's point-in-time instruments into bounded, queryable
// time series, the same way the paper turns a data stream into statistics —
// as a side effect of movement that was happening anyway, in fixed memory.
//
// Three cooperating pieces, all wired from one *obs.Obs bundle:
//
//   - A multi-resolution ring (1s×120, 10s×360, 5m×288) samples every
//     instrument of the bundle's registry once per second, off the hot path.
//     Counters are recorded delta-aware (per-window rates survive counter
//     monotonicity), gauges keep their last reading, and distributions are
//     window-merged: each window accumulates the per-bin count deltas in the
//     Distribution's own fixed HDR layout, coarse windows add sealed base
//     windows' counts, and per-window p50/p90/p99 come out of
//     obs.CountsHistogram — the equi-depth construction the live
//     distribution's quantiles use, the repo's own algorithm summarising the
//     repo's own telemetry history.
//
//   - Distinct tables and clients, the synthetic timeline_distinct_* series:
//     the bundle's tracer raises the registers of two HyperLogLog sketches at
//     publish, for every record whether tail sampling keeps it or not, and
//     each tick drains them into the open base window; coarser windows merge
//     them with the sketch package's pointwise-max HLL merge.
//
//   - An anomaly engine runs detectors over the base ring after every
//     sealed window. Every detector is one rule: the sum of a metric over
//     its last Window windows, divided by a denominator metric's sum over
//     the same windows (a ratio) or by Window × a trailing mean (a
//     burn-rate drop) or left as it is, tripping above a threshold or below
//     it. The six stock detectors are that rule six times: throughput drop
//     versus a trailing mean, quarantine and degradation ratios,
//     hwprof-consistency drift, WAL drops, and checkpoint age. A trip
//     (debounced per detector) appends a verdict
//     surfaced through /healthz and /anomalies, and — when a bundle
//     directory is given — writes a self-contained debug bundle: anomaly
//     verdict, a timeline slice, the tracer's tail-sampled records, the
//     simulated-hardware profile, and a live heap profile, both profiles in
//     pprof format `go tool pprof` accepts.
//
// Everything is fixed-memory: rings never grow, the series population is
// capped, sealed distribution windows keep five numbers (count, sum, three
// quantiles) rather than their bins, and only the currently open window per
// resolution holds per-bin counts or an HLL. A nil *Timeline no-ops on every
// method.
package timeline
