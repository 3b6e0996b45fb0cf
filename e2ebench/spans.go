package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// spanRec is one benchmark-side span: a call into a layer, timed from the
// caller. Spans of one workload operation share Trace; Parent is the ID of
// the enclosing span (0 for an operation's root).
type spanRec struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// recorder keeps the spans of a traced run in memory until the run ends.
// A nil *recorder records nothing, so the untraced run executes the same
// code with every span call a no-op.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// span is a handle on an open span; the zero value is "no span".
type span struct {
	r  *recorder
	id int
}

// start opens a span under parent (the zero span for an operation root).
func (r *recorder) start(traceID string, parent span, name, layer string) span {
	if r == nil {
		return span{}
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{Trace: traceID, ID: id, Parent: parent.id, Name: name, Layer: layer, Start: now})
	return span{r: r, id: id}
}

// child opens a span under s in the same trace.
func (s span) child(name, layer string) span {
	if s.r == nil {
		return span{}
	}
	s.r.mu.Lock()
	traceID := s.r.spans[s.id-1].Trace
	s.r.mu.Unlock()
	return s.r.start(traceID, s, name, layer)
}

func (s span) end() {
	if s.r == nil {
		return
	}
	now := time.Since(s.r.epoch).Nanoseconds()
	s.r.mu.Lock()
	s.r.spans[s.id-1].End = now
	s.r.mu.Unlock()
}

// graft adds spans recorded by the program's own self-tracer under parent,
// keeping their tree shape. Their microsecond wall-clock times are moved
// onto the recorder's clock; layerOf names the layer of each stage.
func (s span) graft(spans []*trace.Span, layerOf func(name string) string) {
	if s.r == nil || len(spans) == 0 {
		return
	}
	r := s.r
	base := r.epoch.UnixMicro()
	r.mu.Lock()
	defer r.mu.Unlock()
	traceID := r.spans[s.id-1].Trace
	ids := make(map[string]int, len(spans))
	for _, sp := range spans {
		ids[sp.SpanID] = len(r.spans) + 1
		r.spans = append(r.spans, spanRec{
			Trace: traceID,
			ID:    len(r.spans) + 1,
			Name:  sp.Name,
			Layer: layerOf(sp.Name),
			Start: (sp.Start - base) * 1000,
			End:   (sp.End - base) * 1000,
		})
	}
	for _, sp := range spans {
		parent, ok := ids[sp.ParentID]
		if !ok {
			parent = s.id
		}
		r.spans[ids[sp.SpanID]-1].Parent = parent
	}
}

// durations returns the durations (ms) of every ended span with this name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, sp := range r.spans {
		if sp.Name == name && sp.End > 0 {
			out = append(out, msOf(sp.End-sp.Start))
		}
	}
	return out
}

// rootMs returns the summed duration (ms) of the workload operations: the
// root spans the benchmark opens in the bench layer.
func (r *recorder) rootMs() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var ns int64
	for _, sp := range r.spans {
		if sp.Parent == 0 && sp.Layer == "bench" && sp.End > 0 {
			ns += sp.End - sp.Start
		}
	}
	return msOf(ns)
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of that interval its child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]spanRec)
	for _, sp := range r.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for _, sp := range r.spans {
		if sp.End == 0 {
			continue
		}
		self := (sp.End - sp.Start) - covered(sp.Start, sp.End, children[sp.ID])
		if self < 0 {
			self = 0
		}
		out[sp.Layer] += time.Duration(self)
	}
	return out
}

// covered returns how much of [start, end) the union of the children's
// intervals covers.
func covered(start, end int64, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, start), min(k.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
