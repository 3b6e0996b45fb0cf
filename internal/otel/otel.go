// Package otel provides wire codecs between the canonical span model and
// the three trace protocols the paper's collectors accept (§4): an
// OpenTelemetry-style (OTLP/JSON) format, a Zipkin-style JSON array, and a
// Jaeger-style JSON document. The collector multiplexes these into the
// storage engine.
package otel

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// --- OTLP-style representation -------------------------------------------

// otlpDoc mirrors the resourceSpans nesting of OTLP/JSON.
type otlpDoc struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKV `json:"attributes"`
}

type otlpScopeSpans struct {
	Spans []otlpSpan `json:"spans"`
}

type otlpKV struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue string `json:"stringValue"`
}

type otlpSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Status            otlpStatus `json:"status"`
	Attributes        []otlpKV   `json:"attributes,omitempty"`
}

type otlpStatus struct {
	Code int `json:"code"` // 0 unset, 1 ok, 2 error
}

// OTLP span-kind enum values.
const (
	otlpKindInternal = 1
	otlpKindServer   = 2
	otlpKindClient   = 3
	otlpKindProducer = 4
	otlpKindConsumer = 5
)

func kindToOTLP(k trace.Kind) int {
	switch k {
	case trace.KindServer:
		return otlpKindServer
	case trace.KindClient:
		return otlpKindClient
	case trace.KindProducer:
		return otlpKindProducer
	case trace.KindConsumer:
		return otlpKindConsumer
	default:
		return otlpKindInternal
	}
}

func kindFromOTLP(k int) trace.Kind {
	switch k {
	case otlpKindServer:
		return trace.KindServer
	case otlpKindClient:
		return trace.KindClient
	case otlpKindProducer:
		return trace.KindProducer
	case otlpKindConsumer:
		return trace.KindConsumer
	default:
		return trace.KindInternal
	}
}

// EncodeOTLP renders spans as an OTLP-style JSON document, grouping spans
// by service into resourceSpans blocks.
func EncodeOTLP(spans []*trace.Span) ([]byte, error) {
	byService := map[string][]*trace.Span{}
	var order []string
	for _, s := range spans {
		if _, ok := byService[s.Service]; !ok {
			order = append(order, s.Service)
		}
		byService[s.Service] = append(byService[s.Service], s)
	}
	var doc otlpDoc
	for _, svc := range order {
		rs := otlpResourceSpans{
			Resource: otlpResource{Attributes: []otlpKV{
				{Key: "service.name", Value: otlpValue{StringValue: svc}},
			}},
			ScopeSpans: []otlpScopeSpans{{}},
		}
		for _, s := range byService[svc] {
			status := otlpStatus{Code: 1}
			if s.Error {
				status.Code = 2
			}
			o := otlpSpan{
				TraceID:           s.TraceID,
				SpanID:            s.SpanID,
				ParentSpanID:      s.ParentID,
				Name:              s.Name,
				Kind:              kindToOTLP(s.Kind),
				StartTimeUnixNano: strconv.FormatInt(s.Start*1000, 10),
				EndTimeUnixNano:   strconv.FormatInt(s.End*1000, 10),
				Status:            status,
			}
			if s.Pod != "" {
				o.Attributes = append(o.Attributes, otlpKV{Key: "k8s.pod.name", Value: otlpValue{StringValue: s.Pod}})
			}
			if s.Node != "" {
				o.Attributes = append(o.Attributes, otlpKV{Key: "k8s.node.name", Value: otlpValue{StringValue: s.Node}})
			}
			if len(s.Attrs) > 0 {
				keys := make([]string, 0, len(s.Attrs))
				for k := range s.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					o.Attributes = append(o.Attributes, otlpKV{Key: k, Value: otlpValue{StringValue: s.Attrs[k]}})
				}
			}
			rs.ScopeSpans[0].Spans = append(rs.ScopeSpans[0].Spans, o)
		}
		doc.ResourceSpans = append(doc.ResourceSpans, rs)
	}
	return json.Marshal(doc)
}

// DecodeOTLP parses an OTLP-style JSON document into canonical spans. It
// accepts exactly the documents, and returns exactly the spans, that
// json.Unmarshal into the otlp* types followed by field mapping would (see
// otlpjson.go), in one pass over the bytes without reflection.
func DecodeOTLP(data []byte) ([]*trace.Span, error) {
	d := decoderPool.Get().(*otlpDecoder)
	defer d.release()
	d.data, d.pos, d.depth = data, 0, 0
	if !d.document() {
		return nil, fmt.Errorf("otel: parsing OTLP document: %w", d.err)
	}
	return d.spans()
}

// --- Zipkin-style representation -----------------------------------------

type zipkinSpan struct {
	TraceID       string            `json:"traceId"`
	ID            string            `json:"id"`
	ParentID      string            `json:"parentId,omitempty"`
	Name          string            `json:"name"`
	Kind          string            `json:"kind,omitempty"`
	Timestamp     int64             `json:"timestamp"` // µs
	Duration      int64             `json:"duration"`  // µs
	LocalEndpoint zipkinEndpoint    `json:"localEndpoint"`
	Tags          map[string]string `json:"tags,omitempty"`
}

type zipkinEndpoint struct {
	ServiceName string `json:"serviceName"`
}

func kindToZipkin(k trace.Kind) string {
	switch k {
	case trace.KindServer:
		return "SERVER"
	case trace.KindClient:
		return "CLIENT"
	case trace.KindProducer:
		return "PRODUCER"
	case trace.KindConsumer:
		return "CONSUMER"
	default:
		return ""
	}
}

func kindFromZipkin(k string) trace.Kind {
	switch k {
	case "SERVER":
		return trace.KindServer
	case "CLIENT":
		return trace.KindClient
	case "PRODUCER":
		return trace.KindProducer
	case "CONSUMER":
		return trace.KindConsumer
	default:
		return trace.KindInternal
	}
}

// EncodeZipkin renders spans as a Zipkin-style JSON array.
func EncodeZipkin(spans []*trace.Span) ([]byte, error) {
	out := make([]zipkinSpan, 0, len(spans))
	for _, s := range spans {
		z := zipkinSpan{
			TraceID:       s.TraceID,
			ID:            s.SpanID,
			ParentID:      s.ParentID,
			Name:          s.Name,
			Kind:          kindToZipkin(s.Kind),
			Timestamp:     s.Start,
			Duration:      s.Duration(),
			LocalEndpoint: zipkinEndpoint{ServiceName: s.Service},
		}
		tags := map[string]string{}
		if s.Error {
			tags["error"] = "true"
		}
		if s.Pod != "" {
			tags["pod"] = s.Pod
		}
		if s.Node != "" {
			tags["node"] = s.Node
		}
		if len(tags) > 0 {
			z.Tags = tags
		}
		out = append(out, z)
	}
	return json.Marshal(out)
}

// DecodeZipkin parses a Zipkin-style JSON array.
func DecodeZipkin(data []byte) ([]*trace.Span, error) {
	var zs []zipkinSpan
	if err := json.Unmarshal(data, &zs); err != nil {
		return nil, fmt.Errorf("otel: parsing Zipkin array: %w", err)
	}
	out := make([]*trace.Span, 0, len(zs))
	for _, z := range zs {
		out = append(out, &trace.Span{
			TraceID:  z.TraceID,
			SpanID:   z.ID,
			ParentID: z.ParentID,
			Service:  z.LocalEndpoint.ServiceName,
			Name:     z.Name,
			Kind:     kindFromZipkin(z.Kind),
			Start:    z.Timestamp,
			End:      z.Timestamp + z.Duration,
			Error:    z.Tags["error"] == "true",
			Pod:      z.Tags["pod"],
			Node:     z.Tags["node"],
		})
	}
	return out, nil
}

// --- Jaeger-style representation -----------------------------------------

type jaegerDoc struct {
	Data []jaegerTrace `json:"data"`
}

type jaegerTrace struct {
	TraceID   string                   `json:"traceID"`
	Spans     []jaegerSpan             `json:"spans"`
	Processes map[string]jaegerProcess `json:"processes"`
}

type jaegerSpan struct {
	TraceID       string      `json:"traceID"`
	SpanID        string      `json:"spanID"`
	OperationName string      `json:"operationName"`
	References    []jaegerRef `json:"references,omitempty"`
	StartTime     int64       `json:"startTime"` // µs
	Duration      int64       `json:"duration"`  // µs
	Tags          []jaegerTag `json:"tags,omitempty"`
	ProcessID     string      `json:"processID"`
}

type jaegerRef struct {
	RefType string `json:"refType"`
	TraceID string `json:"traceID"`
	SpanID  string `json:"spanID"`
}

type jaegerTag struct {
	Key   string      `json:"key"`
	Type  string      `json:"type"`
	Value interface{} `json:"value"`
}

type jaegerProcess struct {
	ServiceName string `json:"serviceName"`
}

// EncodeJaeger renders spans grouped by trace as a Jaeger-style document.
func EncodeJaeger(spans []*trace.Span) ([]byte, error) {
	groups := trace.GroupByTraceID(spans)
	var doc jaegerDoc
	for tid, group := range groups {
		jt := jaegerTrace{TraceID: tid, Processes: map[string]jaegerProcess{}}
		procOf := map[string]string{}
		for _, s := range group {
			pid, ok := procOf[s.Service]
			if !ok {
				pid = fmt.Sprintf("p%d", len(procOf)+1)
				procOf[s.Service] = pid
				jt.Processes[pid] = jaegerProcess{ServiceName: s.Service}
			}
			js := jaegerSpan{
				TraceID:       s.TraceID,
				SpanID:        s.SpanID,
				OperationName: s.Name,
				StartTime:     s.Start,
				Duration:      s.Duration(),
				ProcessID:     pid,
				Tags: []jaegerTag{
					{Key: "span.kind", Type: "string", Value: string(s.Kind)},
				},
			}
			if s.ParentID != "" {
				js.References = []jaegerRef{{RefType: "CHILD_OF", TraceID: s.TraceID, SpanID: s.ParentID}}
			}
			if s.Error {
				js.Tags = append(js.Tags, jaegerTag{Key: "error", Type: "bool", Value: true})
			}
			if s.Pod != "" {
				js.Tags = append(js.Tags, jaegerTag{Key: "pod", Type: "string", Value: s.Pod})
			}
			if s.Node != "" {
				js.Tags = append(js.Tags, jaegerTag{Key: "node", Type: "string", Value: s.Node})
			}
			jt.Spans = append(jt.Spans, js)
		}
		doc.Data = append(doc.Data, jt)
	}
	return json.Marshal(doc)
}

// DecodeJaeger parses a Jaeger-style document.
func DecodeJaeger(data []byte) ([]*trace.Span, error) {
	var doc jaegerDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("otel: parsing Jaeger document: %w", err)
	}
	var out []*trace.Span
	for _, jt := range doc.Data {
		for _, js := range jt.Spans {
			sp := &trace.Span{
				TraceID: js.TraceID,
				SpanID:  js.SpanID,
				Name:    js.OperationName,
				Kind:    trace.KindInternal,
				Start:   js.StartTime,
				End:     js.StartTime + js.Duration,
				Service: jt.Processes[js.ProcessID].ServiceName,
			}
			for _, ref := range js.References {
				if ref.RefType == "CHILD_OF" {
					sp.ParentID = ref.SpanID
				}
			}
			for _, tag := range js.Tags {
				switch tag.Key {
				case "span.kind":
					if s, ok := tag.Value.(string); ok {
						k := trace.Kind(s)
						if k.Valid() {
							sp.Kind = k
						}
					}
				case "error":
					if b, ok := tag.Value.(bool); ok && b {
						sp.Error = true
					}
				case "pod":
					if s, ok := tag.Value.(string); ok {
						sp.Pod = s
					}
				case "node":
					if s, ok := tag.Value.(string); ok {
						sp.Node = s
					}
				}
			}
			out = append(out, sp)
		}
	}
	return out, nil
}
