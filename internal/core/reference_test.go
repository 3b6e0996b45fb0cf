package core

import (
	"math"
	"sort"

	"github.com/sleuth-rca/sleuth/internal/features"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// The naive from-scratch references below are the equivalence oracles for
// the production engines: CounterfactualSession must match
// referenceCounterfactual bit for bit, and ScoreBatch must match
// referencePredict and Loss bit for bit.

// referenceCounterfactual answers the §3.5 query from scratch: given the
// observed trace, what would the root span's duration and error status be
// if the spans selected by restored were returned to their normal state
// (median duration, no error)?
//
// Inference is ancestral over the causal DAG: h parameters are produced by
// one aggregation pass over the intervened features, then durations and
// errors are recomputed bottom-up with Eq. 2 and Eq. 3, so a restoration
// deep in the trace propagates through every ancestor rather than only one
// level. Every call re-encodes the trace, copies the features, runs a full
// forward and re-sorts the depth order.
func referenceCounterfactual(m *Model, tr *trace.Trace, restored map[int]bool) CounterfactualResult {
	enc := m.Encode(tr)
	n := tr.Len()

	// Intervene on the feature copies.
	x := tensor.FromRows(enc.X)
	xStar := tensor.FromRows(enc.XStar)
	normalDur := make([]float64, n)  // µs restoration targets
	normalExcl := make([]float64, n) // µs
	for i := range tr.Spans {
		norm := m.Normal(tr.Spans[i].OpKey())
		normalDur[i] = math.Max(norm.MedianDuration, 1)
		normalExcl[i] = math.Max(norm.MedianExclusiveDuration, 1)
		if restored[i] {
			x.Set(i, 0, features.ScaleDuration(int64(normalDur[i])))
			x.Set(i, 1, 0)
			xStar.Set(i, 0, features.ScaleDuration(int64(normalExcl[i])))
			xStar.Set(i, 1, 0)
		}
	}

	g := enc.Graph()
	h := m.agg.Forward(g, xStar, x) // [n, headDim]

	// Bottom-up ancestral recomputation, deepest spans first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return tr.Depth(order[a]) > tr.Depth(order[b]) })

	dur := make([]float64, n) // µs
	errp := make([]float64, n)
	return m.counterfactualRecompute(tr, func(i int) bool { return restored[i] },
		normalDur, normalExcl, h, order, dur, errp)
}

// referencePredict runs one heap-backed forward pass and returns the
// predicted scaled duration and error probability per span.
func referencePredict(m *Model, tr *trace.Trace) (durScaled, errProb []float64) {
	enc := m.Encode(tr)
	x, xStar := inputs(enc, nil)
	pred := m.forward(enc, x, xStar)
	return append([]float64(nil), pred.durScaled.Data...),
		append([]float64(nil), pred.errProb.Data...)
}

// scoreOne returns ScoreBatch's per-span predictions for a single trace.
func scoreOne(m *Model, tr *trace.Trace) (durScaled, errProb []float64) {
	d, e, _ := m.ScoreBatch([]*trace.Trace{tr}, 1)
	return d[0], e[0]
}

// meanScoreLoss is the Eq. 5 objective averaged over traces, from
// ScoreBatch's per-trace losses summed in trace order.
func meanScoreLoss(m *Model, traces []*trace.Trace) float64 {
	_, _, losses := m.ScoreBatch(traces, 0)
	total := 0.0
	for _, l := range losses {
		total += l
	}
	return total / float64(len(traces))
}
