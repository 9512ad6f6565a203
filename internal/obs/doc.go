// Package obs is the repository's self-hosted observability layer: a
// zero-dependency metrics registry, one record per scan (ScanRecord: identity,
// volume, outcome, fault accounting, spans) published exactly once through
// Obs.Publish into one store, Tracer, under one lock — its recent ring keeps
// every scan, its tail ring keeps anomalous ones through a quiet stretch, and
// two HyperLogLog sketches fed at publish count distinct tables and clients —
// and the HTTP introspection surface histserved mounts on -metrics-addr.
//
// The design discipline mirrors the paper's no-cost-to-the-stream rule: the
// instrumentation primitives are single atomics (counters, gauges) or a
// handful of atomics (distributions), instruments are registered at wiring
// time rather than on the hot path (getting an existing one again is a
// lookup under a read lock that allocates nothing), a metric family whose
// label sets follow the data — the hardware profile's per-stage cycles — is
// one computed registration evaluated only when the registry is read (a
// scrape or a timeline tick), and a scan's record and span slab are
// allocated once per scan — never per page. Turning every instrument off is a nil registry:
// all instrument methods are nil-safe no-ops, so the same call sites compile
// to a pointer check when observability is unwired (the pattern
// internal/faults established for chaos hooks).
//
// Dogfooding is the point, not a gimmick: latency and size distributions are
// recorded into a fixed array of atomic bins — the same "binned sorted view"
// the paper's Binner maintains in accelerator memory — and their p50/p90/p99
// are produced by streaming the bins through this repository's own equi-depth
// histogram construction (hist.BuildEquiDepthFromBins + Histogram.Quantile).
// The system's telemetry is summarised by the algorithm the system exists to
// accelerate.
package obs
