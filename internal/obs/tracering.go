// Always-on tail-sampled self-trace store: a fixed-size in-process ring of
// recent request traces, applying the same policy as the ingest tier's tail
// sampler (internal/ingest) — error and latency-outlier traces are always
// kept, the healthy bulk is deterministically shed by salted trace-ID hash
// — so the traces RCA exists to explain are the ones that survive. The ring
// is served at /debug/traces (list + fetch by ID) and queried by
// `sleuthctl trace <id>` / `sleuthctl traces -slowest`.

package obs

import (
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// DefaultTraceRingSize is the ring capacity when SLEUTH_OBS_TRACE_RING is
// unset: enough recent traces to debug a spike without unbounded growth.
const DefaultTraceRingSize = 256

// outlier detection constants: an operation needs outlierMinCount completed
// requests before its mean is trusted, after which a root duration more than
// outlierFactor× the running mean is always kept. The per-operation table is
// capped at outlierMaxOps entries to bound memory under name cardinality
// explosions.
const (
	outlierMinCount = 8
	outlierFactor   = 3.0
	outlierMaxOps   = 512
)

// TraceSummary is one /debug/traces listing entry.
type TraceSummary struct {
	TraceID string `json:"traceId"`
	// Root names the earliest root span (typically "METHOD /path").
	Root string `json:"root"`
	// Services lists the distinct components contributing spans, sorted.
	Services []string `json:"services"`
	Spans    int      `json:"spans"`
	// DurationUS is the root span's duration in microseconds.
	DurationUS int64 `json:"durationUs"`
	Error      bool  `json:"error,omitempty"`
	// StartUS is the root span's start time (microseconds since epoch).
	StartUS int64 `json:"startUs"`
}

// ringEntry is one stored trace plus the bookkeeping to evict and merge.
type ringEntry struct {
	traceID string
	spans   []*trace.Span
	seq     uint64
}

// opStat is the running per-operation latency baseline for outlier keeps.
type opStat struct {
	count int64
	mean  float64
}

// TraceRing is the fixed-capacity tail-sampled self-trace store. All
// methods are safe for concurrent use and nil-safe (a nil ring is inert).
type TraceRing struct {
	mu      sync.Mutex
	entries []ringEntry
	byID    map[string]int // traceID → slot
	head    int
	n       int
	seq     uint64

	// keepAll/threshold implement the hash-shed verdict for healthy traces
	// (trace.SampleHash, as in the ingest tail sampler, differently salted).
	keepAll   bool
	threshold uint64

	ops map[string]*opStat
}

// NewTraceRing creates a ring holding up to capacity traces, keeping
// healthy (non-error, non-outlier) traces with probability rate.
func NewTraceRing(capacity int, rate float64) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceRingSize
	}
	r := &TraceRing{
		entries: make([]ringEntry, capacity),
		byID:    make(map[string]int, capacity),
		ops:     make(map[string]*opStat),
	}
	if rate >= 1 {
		r.keepAll = true
	} else {
		if rate < 0 {
			rate = 0
		}
		r.threshold = uint64(rate * float64(^uint64(0)>>1) * 2)
	}
	return r
}

// ringRootSpan picks the entry span: the first parentless span, else the
// earliest-starting one (a server continuing a remote trace has a parent ID
// referencing a span in another process's ring).
func ringRootSpan(spans []*trace.Span) *trace.Span {
	var earliest *trace.Span
	for _, sp := range spans {
		if earliest == nil || sp.Start < earliest.Start {
			earliest = sp
		}
	}
	for _, sp := range spans {
		if sp.ParentID == "" {
			return sp
		}
	}
	return earliest
}

// localRootSpan finds the span whose parent is not in the given set — the
// process-local root even when it links to a remote parent.
func localRootSpan(spans []*trace.Span) *trace.Span {
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		ids[sp.SpanID] = true
	}
	for _, sp := range spans {
		if !ids[sp.ParentID] {
			return sp
		}
	}
	return spans[0]
}

// Add offers a completed request trace to the ring and reports whether it
// was kept. Error traces and latency outliers are always kept; healthy
// traces pass the hash-shed verdict. Spans of a trace already resident
// (another request of the same distributed trace hitting this process)
// merge into the existing entry.
func (r *TraceRing) Add(spans []*trace.Span) bool {
	if r == nil || len(spans) == 0 {
		return false
	}
	traceID := spans[0].TraceID
	hasError := false
	for _, sp := range spans {
		if sp.Error {
			hasError = true
			break
		}
	}
	root := localRootSpan(spans)

	r.mu.Lock()
	defer r.mu.Unlock()
	if slot, ok := r.byID[traceID]; ok {
		r.mergeLocked(slot, spans)
		C("obs.selftrace.merged").Inc()
		return true
	}
	outlier := r.noteOutlierLocked(root)
	if !hasError && !outlier && !r.keepAll && trace.SampleHash(traceID, trace.TraceRingSalt) >= r.threshold {
		C("obs.selftrace.shed").Inc()
		return false
	}
	// Keep: claim the next slot, evicting its previous occupant.
	e := &r.entries[r.head]
	if e.traceID != "" {
		delete(r.byID, e.traceID)
	}
	e.traceID = traceID
	e.spans = append(e.spans[:0], spans...)
	r.seq++
	e.seq = r.seq
	r.byID[traceID] = r.head
	r.head++
	if r.head == len(r.entries) {
		r.head = 0
	}
	if r.n < len(r.entries) {
		r.n++
	}
	switch {
	case hasError:
		C("obs.selftrace.kept_error").Inc()
	case outlier:
		C("obs.selftrace.kept_latency").Inc()
	default:
		C("obs.selftrace.kept").Inc()
	}
	return true
}

// mergeLocked appends new spans into an existing entry, deduplicating by
// span ID (a mirror POST can replay spans this process already holds).
func (r *TraceRing) mergeLocked(slot int, spans []*trace.Span) {
	e := &r.entries[slot]
	seen := make(map[string]bool, len(e.spans))
	for _, sp := range e.spans {
		seen[sp.SpanID] = true
	}
	for _, sp := range spans {
		if !seen[sp.SpanID] {
			e.spans = append(e.spans, sp)
			seen[sp.SpanID] = true
		}
	}
}

// noteOutlierLocked updates the per-operation latency baseline with the
// root span and reports whether it is an outlier keep.
func (r *TraceRing) noteOutlierLocked(root *trace.Span) bool {
	if root == nil {
		return false
	}
	dur := float64(root.Duration())
	st := r.ops[root.Name]
	if st == nil {
		if len(r.ops) >= outlierMaxOps {
			return false
		}
		st = &opStat{}
		r.ops[root.Name] = st
	}
	outlier := st.count >= outlierMinCount && dur > outlierFactor*st.mean
	st.count++
	st.mean += (dur - st.mean) / float64(st.count)
	return outlier
}

// Get returns copies of the stored spans of one trace (nil if absent).
func (r *TraceRing) Get(traceID string) []*trace.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.byID[traceID]
	if !ok {
		return nil
	}
	out := make([]*trace.Span, len(r.entries[slot].spans))
	for i, sp := range r.entries[slot].spans {
		cp := *sp
		out[i] = &cp
	}
	return out
}

// Len returns the number of resident traces.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the ring capacity.
func (r *TraceRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// List summarises resident traces, newest first.
func (r *TraceRing) List() []TraceSummary {
	return r.list(func(a, b *listRow) bool { return a.seq > b.seq })
}

// Slowest summarises resident traces, longest root duration first.
func (r *TraceRing) Slowest() []TraceSummary {
	return r.list(func(a, b *listRow) bool {
		if a.sum.DurationUS != b.sum.DurationUS {
			return a.sum.DurationUS > b.sum.DurationUS
		}
		return a.seq > b.seq
	})
}

type listRow struct {
	sum TraceSummary
	seq uint64
}

func (r *TraceRing) list(less func(a, b *listRow) bool) []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rows := make([]listRow, 0, r.n)
	for i := range r.entries {
		e := &r.entries[i]
		if e.traceID == "" {
			continue
		}
		root := ringRootSpan(e.spans)
		sum := TraceSummary{
			TraceID: e.traceID,
			Spans:   len(e.spans),
		}
		if root != nil {
			sum.Root = root.Name
			sum.DurationUS = root.Duration()
			sum.StartUS = root.Start
		}
		svc := map[string]bool{}
		for _, sp := range e.spans {
			if sp.Error {
				sum.Error = true
			}
			svc[sp.Service] = true
		}
		for s := range svc {
			sum.Services = append(sum.Services, s)
		}
		sort.Strings(sum.Services)
		rows = append(rows, listRow{sum: sum, seq: e.seq})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return less(&rows[i], &rows[j]) })
	out := make([]TraceSummary, len(rows))
	for i := range rows {
		out[i] = rows[i].sum
	}
	return out
}

// --- Process-wide ring -----------------------------------------------------

// globalRing is the process self-trace store; nil while observability is
// disabled. Created by Enable alongside the metrics registry.
var globalRing atomic.Pointer[TraceRing]

// Ring returns the process self-trace ring, or nil when disabled.
func Ring() *TraceRing { return globalRing.Load() }

// newTraceRingFromEnv sizes the process ring from the environment:
// SLEUTH_OBS_TRACE_RING (capacity, default 256) and
// SLEUTH_OBS_TRACE_SAMPLE (healthy keep rate in [0,1], default 1).
func newTraceRingFromEnv() *TraceRing {
	capacity := DefaultTraceRingSize
	if raw := os.Getenv("SLEUTH_OBS_TRACE_RING"); raw != "" {
		if n, err := strconv.Atoi(raw); err == nil && n > 0 {
			capacity = n
		}
	}
	rate := 1.0
	if raw := os.Getenv("SLEUTH_OBS_TRACE_SAMPLE"); raw != "" {
		if f, err := strconv.ParseFloat(raw, 64); err == nil && f >= 0 && f <= 1 {
			rate = f
		}
	}
	return NewTraceRing(capacity, rate)
}

// TracesListResponse is the /debug/traces listing document.
type TracesListResponse struct {
	Traces []TraceSummary `json:"traces"`
}

// TracesHandler serves the self-trace ring:
//
//	GET /debug/traces                 list resident traces, newest first
//	GET /debug/traces?slowest=1&n=20  longest root durations first
//	GET /debug/traces?id=<traceID>    the trace's spans (canonical JSON)
//
// A nil ring serves an empty listing and 404s fetches — probe-safe whether
// or not observability is enabled.
func TracesHandler(ring *TraceRing) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("id"); id != "" {
			spans := ring.Get(id)
			if spans == nil {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			writeJSON(w, spans)
			return
		}
		var sums []TraceSummary
		if r.URL.Query().Get("slowest") != "" {
			sums = ring.Slowest()
		} else {
			sums = ring.List()
		}
		if raw := r.URL.Query().Get("n"); raw != "" {
			if n, err := strconv.Atoi(raw); err == nil && n >= 0 && n < len(sums) {
				sums = sums[:n]
			}
		}
		if sums == nil {
			sums = []TraceSummary{}
		}
		writeJSON(w, TracesListResponse{Traces: sums})
	}
}
