package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and whether at
// least minBeyond samples lie beyond it. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], true
}

// blockPercentile splits xs into consecutive blocks of size samples,
// dropping a trailing partial block, and returns the median of the blocks'
// p-th percentiles: a burst of interference from outside the program moves
// one block's figure, not the run's. Every block must have minBeyond
// samples beyond its percentile. size ≤ 0 means one block of all of xs.
func blockPercentile(xs []float64, size int, p float64) (float64, bool) {
	if size <= 0 {
		size = len(xs)
	}
	var per []float64
	for lo := 0; size > 0 && lo+size <= len(xs); lo += size {
		v, ok := percentile(xs[lo:lo+size], p)
		if !ok {
			return 0, false
		}
		per = append(per, v)
	}
	if len(per) == 0 {
		return 0, false
	}
	return median(per), true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It is used for small repeated measurements such as
// the set-up repetitions, where the percentile rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// Metric is one reported number with its unit and, for timings and other
// distributions, the number of samples behind it.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

func (m Metrics) set(name, unit string, v float64, samples int) {
	m[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// setPct records the p-th percentile of xs under name when enough samples
// lie beyond it, and reports whether it did.
func (m Metrics) setPct(name, unit string, xs []float64, p float64) bool {
	return m.setBlockPct(name, unit, xs, 0, p)
}

// setBlockPct is setPct over blocks of size samples (see blockPercentile).
func (m Metrics) setBlockPct(name, unit string, xs []float64, size int, p float64) bool {
	v, ok := blockPercentile(xs, size, p)
	if ok {
		m.set(name, unit, v, len(xs))
	}
	return ok
}

// spec declares a metric the benchmark emits: its name and unit.
type spec struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run (--trace 0), emitted on every
// workload. What each one measures on each workload is documented in
// README.md.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.p90", "ms"},
	{"throughput_per_s", "1/s"},
	{"f1", "ratio"},
	{"acc", "ratio"},
}

// selfTimeLayers are the layers whose self time the traced run reports, as
// <layer>.self_share and, in the report line, <layer>.self_ms_per_op.
var selfTimeLayers = []string{"bench", "collector", "ingest", "store", "sleuth", "cluster", "rca", "modelserver"}

// perLayer are the metrics of a traced run (--trace 1), emitted on every
// workload; a layer that is not on a workload's path reports 0 there. A
// layer's time is given as its share of the traced operations' time, so
// that every timing in the result line is measured on every workload; the
// per-call timings (<stage>_ms.p50) are in the report line, on the
// workloads that run the stage.
var perLayer = func() []spec {
	out := []spec{
		{"setup.train_s", "s"},
		{"setup.normals_s", "s"},
		{"setup.generate_s", "s"},
		{"otel.decode_share", "ratio"},
		{"collector.bytes_per_span", "B"},
		{"collector.spans_rejected", "count"},
		{"collector.spans_dropped", "count"},
		{"ingest.flush_share", "ratio"},
		{"ingest.kept_ratio", "ratio"},
		{"ingest.spans_written", "count"},
		{"store.range_fetch_share", "ratio"},
		{"store.traces_returned", "count"},
		{"store.id_fetch_share", "ratio"},
		{"cluster.featurize_share", "ratio"},
		{"cluster.pairwise_share", "ratio"},
		{"cluster.hdbscan_share", "ratio"},
		{"cluster.medoids_share", "ratio"},
		{"cluster.anomalous_traces", "count"},
		{"cluster.clusters", "count"},
		{"cluster.noise_ratio", "ratio"},
		{"rca.localize_share", "ratio"},
		{"rca.inference_reduction", "ratio"},
		{"rca.counterfactuals_per_query", "count"},
		{"rca.rows_updated_per_query", "count"},
		{"rca.pruned_per_query", "count"},
		{"rca.normalized_ratio", "ratio"},
		{"gnn.forward_nodes_per_query", "count"},
		{"gnn.incremental_rows_per_query", "count"},
		{"core.score_share", "ratio"},
		{"modelserver.score_share", "ratio"},
		{"modelserver.batch_size.mean", "count"},
		{"modelserver.queue_wait_share", "ratio"},
		{"modelserver.solo_ratio", "ratio"},
		{"modelserver.batched_ratio", "ratio"},
		{"modelserver.requests_per_batch.mean", "count"},
		{"modelserver.cache_hit_ratio", "ratio"},
		{"go.alloc_mb_per_op", "MB"},
		{"go.gc_cycles", "count"},
		{"tracing_overhead_pct", "%"},
	}
	for _, l := range selfTimeLayers {
		out = append(out, spec{l + ".self_share", "ratio"})
	}
	return out
}()

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// project returns the catalog's metrics from m, value and unit only, in the
// form the last output line carries. A catalog metric missing from m, or
// present with another unit, is an error.
func project(m Metrics, catalog []spec) (map[string]Metric, error) {
	out := make(map[string]Metric, len(catalog))
	for _, s := range catalog {
		v, ok := m[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if v.Unit != s.Unit {
			return nil, fmt.Errorf("metric %s has unit %q, want %q", s.Name, v.Unit, s.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number", s.Name)
		}
		out[s.Name] = Metric{Value: v.Value, Unit: v.Unit}
	}
	return out, nil
}

// fillAbsent sets every catalog metric not yet in m to 0: the layer it
// measures is not on this workload's path.
func fillAbsent(m Metrics, catalog []spec) {
	for _, s := range catalog {
		if _, ok := m[s.Name]; !ok {
			m.set(s.Name, s.Unit, 0, 0)
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }
