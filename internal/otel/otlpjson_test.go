package otel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// payloadSpans is the export size the allocation gate and the benchmark
// decode: the batch size the collector sees from the incident workload.
const payloadSpans = 512

// synthetic256Payload encodes the first payloadSpans spans of healthy
// Synthetic-256 traffic as one OTLP export.
func synthetic256Payload(tb testing.TB) []byte {
	tb.Helper()
	s := sim.New(synth.Synthetic(256, 1), sim.DefaultOptions(1))
	var spans []*trace.Span
	for id := 0; len(spans) < payloadSpans; id++ {
		res, err := s.SimulateRequest(id, nil)
		if err != nil {
			tb.Fatal(err)
		}
		spans = append(spans, res.Trace.Spans...)
	}
	data, err := EncodeOTLP(spans[:payloadSpans])
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// escapeValues rewrites every non-empty string value of a compact JSON
// document so its first character is a \u escape, keeping what it
// decodes to. Object keys stay plain. Every value string then misses the
// scanner's copy path: the worst case of an escaping sender, such as a
// Python exporter (ensure_ascii) on non-ASCII names, or Go's json.Marshal
// on names holding <, > or &.
func escapeValues(data []byte) []byte {
	out := make([]byte, 0, 2*len(data))
	afterColon := false
	for i := 0; i < len(data); i++ {
		c := data[i]
		if c != '"' {
			out = append(out, c)
			afterColon = c == ':'
			continue
		}
		j := i + 1
		for data[j] != '"' {
			if data[j] == '\\' {
				j++
			}
			j++
		}
		if afterColon && j > i+1 && data[i+1] != '\\' {
			out = fmt.Appendf(out, `"\u%04x`, data[i+1])
			out = append(out, data[i+2:j+1]...)
		} else {
			out = append(out, data[i:j+1]...)
		}
		i, afterColon = j, false
	}
	return out
}

// plainShare is the fraction of string tokens in a compact JSON document
// that hold no backslash escape and are valid UTF-8: the strings the
// scanner copies straight out of the body.
func plainShare(data []byte) float64 {
	plain, all := 0, 0
	for i := 0; i < len(data); i++ {
		if data[i] != '"' {
			continue
		}
		j, esc := i+1, false
		for data[j] != '"' {
			if data[j] == '\\' {
				esc = true
				j++
			}
			j++
		}
		all++
		if !esc && utf8.Valid(data[i+1:j]) {
			plain++
		}
		i = j
	}
	return float64(plain) / float64(all)
}

// errClass names which of DecodeOTLP's failure kinds err is.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, p := range []string{"otel: parsing OTLP document: ", "otel: bad start time ", "otel: bad end time "} {
		if strings.HasPrefix(err.Error(), p) {
			return p
		}
	}
	return "unknown: " + err.Error()
}

// checkAgainstReference fails unless DecodeOTLP and the encoding/json
// reference agree on data: the same verdict and failure kind, the same
// message for timestamp errors, and reflect.DeepEqual spans.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeOTLPReference(data)
	got, gotErr := DecodeOTLP(data)
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("verdicts differ on %q:\n  scanner:   %v\n  reference: %v", data, gotErr, wantErr)
	}
	if wantErr != nil && !strings.HasPrefix(wantErr.Error(), "otel: parsing") && gotErr.Error() != wantErr.Error() {
		t.Fatalf("timestamp errors differ on %q:\n  scanner:   %v\n  reference: %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans differ on %q:\n  scanner:   %s\n  reference: %s", data, dumpSpans(got), dumpSpans(want))
	}
}

func dumpSpans(spans []*trace.Span) string {
	b, _ := json.Marshal(spans)
	if spans == nil {
		return "nil"
	}
	return string(b)
}

// FuzzDecodeOTLP is the differential check of the scanner against the
// encoding/json reference. The seed corpus in testdata covers the traps
// where the two could part: repeated and case-variant keys, invalid JSON
// numbers, escapes and invalid UTF-8, null in every position, mistyped
// values, trailing data, the nesting limit and a real 512-span export.
func FuzzDecodeOTLP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

// canonical orders spans by their JSON encoding, for codecs whose span
// order depends on map iteration.
func canonical(t *testing.T, spans []*trace.Span) []string {
	t.Helper()
	out := make([]string, len(spans))
	for i, s := range spans {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// FuzzDecodeZipkin: no input panics the decoder, and whatever decodes
// survives encode → decode → encode unchanged.
func FuzzDecodeZipkin(f *testing.F) {
	if data, err := EncodeZipkin(sampleSpans(f)); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`[{"traceId":"t","id":"s","name":"x","kind":"SERVER","timestamp":5,"duration":-3,"localEndpoint":{"serviceName":"a"},"tags":{"error":"true","pod":"p"}}]`))
	f.Add([]byte(`[null,{"tags":null}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := DecodeZipkin(data)
		if err != nil {
			return
		}
		enc, err := EncodeZipkin(spans)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeZipkin(enc)
		if err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
		if !reflect.DeepEqual(back, spans) {
			t.Fatalf("round trip changed spans:\n  %s\n  %s", dumpSpans(spans), dumpSpans(back))
		}
		again, err := EncodeZipkin(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("encoding not stable:\n  %s\n  %s", enc, again)
		}
	})
}

// FuzzDecodeJaeger: no input panics the decoder, and whatever decodes
// survives encode → decode → encode unchanged, up to the trace order
// EncodeJaeger takes from map iteration.
func FuzzDecodeJaeger(f *testing.F) {
	if data, err := EncodeJaeger(sampleSpans(f)); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"data":[{"traceID":"t","spans":[{"traceID":"t","spanID":"s","operationName":"x","references":[{"refType":"CHILD_OF","spanID":"p"}],"startTime":1,"duration":2,"tags":[{"key":"span.kind","value":"client"},{"key":"error","value":true}],"processID":"p1"}],"processes":{"p1":{"serviceName":"a"}}}]}`))
	f.Add([]byte(`{"data":[{"spans":[{"tags":[{"key":"span.kind","value":"weird"},{"key":"pod","value":3}]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := DecodeJaeger(data)
		if err != nil {
			return
		}
		enc, err := EncodeJaeger(spans)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeJaeger(enc)
		if err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
		want := canonical(t, spans)
		if got := canonical(t, back); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed spans:\n  %v\n  %v", want, got)
		}
		again, err := EncodeJaeger(back)
		if err != nil {
			t.Fatal(err)
		}
		back2, err := DecodeJaeger(again)
		if err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
		if got := canonical(t, back2); !reflect.DeepEqual(got, want) {
			t.Fatalf("encoding not stable:\n  %s\n  %s", enc, again)
		}
	})
}

// TestDecodeOTLPSteadyStateAllocs is the allocation gate for the receiver
// codec: a warm decode of a 512-span Synthetic-256 export must stay under
// 6 allocations per span. The scanner measures about 1.9; the
// encoding/json decoder it replaced made 13.9, so a return to reflection
// decoding fails here.
func TestDecodeOTLPSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	data := synthetic256Payload(t)
	decode := func() {
		if _, err := DecodeOTLP(data); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	perSpan := testing.AllocsPerRun(20, decode) / payloadSpans
	const budget = 6
	if perSpan > budget {
		t.Fatalf("DecodeOTLP allocates %.2f times per span, budget %d", perSpan, budget)
	}
	t.Logf("DecodeOTLP: %.2f allocs/span (budget %d)", perSpan, budget)
}

// BenchmarkDecodeOTLP decodes a 512-span Synthetic-256 export with the
// scanner and with the encoding/json reference, reporting MB/s, ns/span
// and the share of string tokens the scanner copies straight out of the
// body. The plain payload is what EncodeOTLP emits (every string plain);
// the escaped one holds the same spans with a \u escape in every string
// value, the scanner's slow path.
func BenchmarkDecodeOTLP(b *testing.B) {
	plain := synthetic256Payload(b)
	for _, p := range []struct {
		name string
		data []byte
	}{
		{"plain", plain},
		{"escaped", escapeValues(plain)},
	} {
		for _, c := range []struct {
			name   string
			decode func([]byte) ([]*trace.Span, error)
		}{
			{"scanner", DecodeOTLP},
			{"reference", decodeOTLPReference},
		} {
			b.Run(p.name+"/"+c.name, func(b *testing.B) {
				b.SetBytes(int64(len(p.data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.decode(p.data); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*payloadSpans), "ns/span")
				b.ReportMetric(plainShare(p.data), "plain-share")
			})
		}
	}
}

// TestEscapedPayloadDecodesSame: the escaped benchmark payload decodes to
// exactly the spans of the plain one, so the two benchmark cases time the
// same work, and the scanner agrees with the reference on it.
func TestEscapedPayloadDecodesSame(t *testing.T) {
	plain := synthetic256Payload(t)
	escaped := escapeValues(plain)
	// Keys stay plain and make up about 60% of the string tokens.
	if share := plainShare(escaped); share > 0.7 {
		t.Fatalf("escaped payload keeps %.2f of its strings plain", share)
	}
	want, err := DecodeOTLP(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOTLP(escaped)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("escaped payload decodes to different spans")
	}
	checkAgainstReference(t, escaped)
}
