package otel

import (
	"encoding/json"
	"fmt"
	"strconv"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

func sampleSpans(t testing.TB) []*trace.Span {
	t.Helper()
	s := sim.New(synth.Synthetic(16, 1), sim.DefaultOptions(1))
	res, err := s.SimulateRequest(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace.Spans
}

func spansEquivalent(t *testing.T, a, b []*trace.Span) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	byID := map[string]*trace.Span{}
	for _, s := range a {
		byID[s.SpanID] = s
	}
	for _, s := range b {
		o, ok := byID[s.SpanID]
		if !ok {
			t.Fatalf("span %s lost", s.SpanID)
		}
		if o.TraceID != s.TraceID || o.ParentID != s.ParentID ||
			o.Service != s.Service || o.Name != s.Name || o.Kind != s.Kind ||
			o.Start != s.Start || o.End != s.End || o.Error != s.Error ||
			o.Pod != s.Pod || o.Node != s.Node {
			t.Fatalf("span %s changed:\n  a=%+v\n  b=%+v", s.SpanID, o, s)
		}
	}
}

func TestOTLPRoundTrip(t *testing.T) {
	spans := sampleSpans(t)
	data, err := EncodeOTLP(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeOTLP(data)
	if err != nil {
		t.Fatal(err)
	}
	spansEquivalent(t, spans, back)
}

func TestZipkinRoundTrip(t *testing.T) {
	spans := sampleSpans(t)
	data, err := EncodeZipkin(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeZipkin(data)
	if err != nil {
		t.Fatal(err)
	}
	spansEquivalent(t, spans, back)
}

func TestJaegerRoundTrip(t *testing.T) {
	spans := sampleSpans(t)
	data, err := EncodeJaeger(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJaeger(data)
	if err != nil {
		t.Fatal(err)
	}
	spansEquivalent(t, spans, back)
}

func TestDecodersRejectGarbage(t *testing.T) {
	for name, dec := range map[string]func([]byte) ([]*trace.Span, error){
		"otlp":   DecodeOTLP,
		"zipkin": DecodeZipkin,
		"jaeger": DecodeJaeger,
	} {
		if _, err := dec([]byte("{not json")); err == nil {
			t.Errorf("%s accepted garbage", name)
		}
	}
}

func TestDecodedSpansAssemble(t *testing.T) {
	spans := sampleSpans(t)
	data, err := EncodeOTLP(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeOTLP(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Assemble(back)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(spans) {
		t.Fatalf("assembled %d spans, want %d", tr.Len(), len(spans))
	}
}

func TestKindMappings(t *testing.T) {
	kinds := []trace.Kind{trace.KindServer, trace.KindClient, trace.KindProducer, trace.KindConsumer, trace.KindInternal}
	for _, k := range kinds {
		if got := kindFromOTLP(kindToOTLP(k)); got != k {
			t.Errorf("OTLP kind %s -> %s", k, got)
		}
		if got := kindFromZipkin(kindToZipkin(k)); got != k {
			t.Errorf("Zipkin kind %s -> %s", k, got)
		}
	}
	if kindFromOTLP(99) != trace.KindInternal {
		t.Error("unknown OTLP kind not internal")
	}
	if kindFromZipkin("WEIRD") != trace.KindInternal {
		t.Error("unknown Zipkin kind not internal")
	}
}

func TestOTLPBadTimestamps(t *testing.T) {
	doc := `{"resourceSpans":[{"resource":{"attributes":[]},"scopeSpans":[{"spans":[
		{"traceId":"t","spanId":"s","name":"x","kind":2,
		 "startTimeUnixNano":"oops","endTimeUnixNano":"1000","status":{"code":1}}]}]}]}`
	if _, err := DecodeOTLP([]byte(doc)); err == nil {
		t.Fatal("bad timestamp accepted")
	}
}

// decodeOTLPReference is the encoding/json implementation DecodeOTLP
// replaced, kept verbatim as the oracle the scanner is checked against:
// DecodeOTLP must return the same accept/reject verdict and
// reflect.DeepEqual spans for every input.
func decodeOTLPReference(data []byte) ([]*trace.Span, error) {
	var doc otlpDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("otel: parsing OTLP document: %w", err)
	}
	var out []*trace.Span
	for _, rs := range doc.ResourceSpans {
		service := ""
		for _, kv := range rs.Resource.Attributes {
			if kv.Key == "service.name" {
				service = kv.Value.StringValue
			}
		}
		for _, ss := range rs.ScopeSpans {
			for _, o := range ss.Spans {
				startNano, err := strconv.ParseInt(o.StartTimeUnixNano, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("otel: bad start time %q: %w", o.StartTimeUnixNano, err)
				}
				endNano, err := strconv.ParseInt(o.EndTimeUnixNano, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("otel: bad end time %q: %w", o.EndTimeUnixNano, err)
				}
				sp := &trace.Span{
					TraceID:  o.TraceID,
					SpanID:   o.SpanID,
					ParentID: o.ParentSpanID,
					Service:  service,
					Name:     o.Name,
					Kind:     kindFromOTLP(o.Kind),
					Start:    startNano / 1000,
					End:      endNano / 1000,
					Error:    o.Status.Code == 2,
				}
				for _, kv := range o.Attributes {
					switch kv.Key {
					case "k8s.pod.name":
						sp.Pod = kv.Value.StringValue
					case "k8s.node.name":
						sp.Node = kv.Value.StringValue
					default:
						if sp.Attrs == nil {
							sp.Attrs = map[string]string{}
						}
						sp.Attrs[kv.Key] = kv.Value.StringValue
					}
				}
				out = append(out, sp)
			}
		}
	}
	return out, nil
}
