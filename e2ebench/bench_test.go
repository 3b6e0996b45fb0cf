package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
)

func TestIncidentPayloadsRepeatForASeed(t *testing.T) {
	app := synth.Synthetic(64, appSeed)
	p := incidentParams{minTraces: 4, maxTraces: 6, backgroundShare: 0.5, payloadSpans: 64}
	_, calib, err := normalCorpus(app, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	slo := sloAnalyzer(calib)
	gen := func(seed uint64) *incidentInput {
		in, err := genIncident(app, sim.New(app, sim.DefaultOptions(seed)), slo, seed, 3, p)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, other := gen(7), gen(7), gen(8)
	if len(a.payloads) == 0 || !reflect.DeepEqual(a.payloads, b.payloads) {
		t.Fatal("same seed gave different OTLP payloads")
	}
	if !reflect.DeepEqual(a.ids, b.ids) || !reflect.DeepEqual(a.truth, b.truth) || a.from != b.from || a.to != b.to {
		t.Fatal("same seed gave different incident traces or ground truth")
	}
	if reflect.DeepEqual(a.payloads, other.payloads) {
		t.Fatal("different seeds gave identical payloads")
	}
}

func TestQuerySetRepeatsForASeed(t *testing.T) {
	app := synth.Synthetic(64, appSeed)
	gen := func(seed uint64) ([]rcaQuery, []byte) {
		s := sim.New(app, sim.DefaultOptions(seed))
		_, calib, err := normalCorpus(app, 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		qs, traces, err := genQueries(app, s, calib, seed, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		var spans bytes.Buffer
		for _, tr := range traces {
			data, err := json.Marshal(tr.Spans)
			if err != nil {
				t.Fatal(err)
			}
			spans.Write(data)
		}
		return qs, spans.Bytes()
	}
	qa, sa := gen(5)
	qb, sb := gen(5)
	if len(qa) != 6 || !reflect.DeepEqual(qa, qb) || !bytes.Equal(sa, sb) {
		t.Fatal("same seed gave different query sets")
	}
	if _, so := gen(6); bytes.Equal(sa, so) {
		t.Fatal("different seeds gave identical query sets")
	}
}

func TestFlowQuotasFollowWeights(t *testing.T) {
	for _, c := range []struct {
		weights []float64
		n       int
		want    []int
	}{
		{[]float64{1, 6, 2, 6}, 200, []int{13, 80, 27, 80}},
		{[]float64{1, 1, 1}, 4, []int{2, 1, 1}},
		{[]float64{3}, 5, []int{5}},
	} {
		if got := flowQuotas(c.weights, c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("flowQuotas(%v, %d) = %v, want %v", c.weights, c.n, got, c.want)
		}
	}
}

func TestScoreRequestsRepeatForASeed(t *testing.T) {
	app := synth.Synthetic(scoreRPCs, appSeed)
	gen := func(seed uint64) []scoreReq {
		s := sim.New(app, sim.DefaultOptions(seed))
		_, calib, err := normalCorpus(app, 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := genScoreRequests(app, s, calib, seed, 16)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	a, b := gen(9), gen(9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request bodies")
	}
	if reflect.DeepEqual(a, gen(10)) {
		t.Fatal("different seeds gave identical request bodies")
	}
}

// TestMetricCatalog checks every emitted name and unit, and that the
// catalog is exactly what BENCHMARK.json declares.
func TestMetricCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q does not match %s", s.Name, nameRE)
		}
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %s has unit %q, which does not match %s", s.Name, s.Unit, unitRE)
		}
		if seen[s.Name] {
			t.Errorf("metric %s declared twice", s.Name)
		}
		seen[s.Name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &declared); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, got []spec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark emits %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: emitted %v, declared %v", kind, i, got[i], want[i])
			}
		}
	}
	match("end_to_end", endToEnd, declared.EndToEnd)
	match("per_layer", perLayer, declared.PerLayer)
}

func TestProjectRequiresEveryMetric(t *testing.T) {
	m := Metrics{}
	m.set("setup_s", "s", 1.5, 3)
	if _, err := project(m, endToEnd); err == nil {
		t.Fatal("project accepted a result missing metrics")
	}
	fillAbsent(m, endToEnd)
	out, err := project(m, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if got := out["setup_s"]; got.Value != 1.5 || got.Unit != "s" || got.Samples != 0 {
		t.Fatalf("projected setup_s = %+v", got)
	}
	m.set("f1", "%", 0.5, 1)
	if _, err := project(m, endToEnd); err == nil {
		t.Fatal("project accepted a metric with the wrong unit")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{100, 90, 90, true},
		{99, 90, 0, false},
		{100, 95, 0, false},
		{1000, 99, 990, true},
		{999, 99, 0, false},
		{20, 50, 10, true},
		{19, 50, 0, false},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.report || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, p%g) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.report)
		}
	}
	// Block medians: three blocks of 100 whose p90s are 90, 190 and 290;
	// the trailing partial block is ignored.
	if got, ok := blockPercentile(append(seq(300), 1e9), 100, 90); !ok || got != 190 {
		t.Errorf("blockPercentile = %v, %v; want 190, true", got, ok)
	}
	if _, ok := blockPercentile(seq(300), 60, 90); ok {
		t.Error("blockPercentile reported a p90 of 60-sample blocks")
	}
	m := Metrics{}
	if m.setPct("x_ms.p99", "ms", seq(500), 99) {
		t.Error("setPct reported a p99 of 500 samples")
	}
	if _, ok := m["x_ms.p99"]; ok {
		t.Error("setPct stored an unreportable percentile")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	r := &recorder{spans: []spanRec{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "collector", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "collector", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 1, Layer: "store", Start: 90, End: 120},    // runs past its parent
		{ID: 5, Parent: 2, Layer: "otel", Start: 15, End: 20},
	}}
	got := r.selfTimes()
	want := map[string]int64{"bench": 100 - 50 - 10, "collector": 25 + 30, "store": 30, "otel": 5}
	for layer, ns := range want {
		if int64(got[layer]) != ns {
			t.Errorf("self time of %s = %d ns, want %d", layer, got[layer], ns)
		}
	}
}

func TestSleuthKnobsRefused(t *testing.T) {
	got := sleuthKnobs([]string{"PATH=/bin", "SLEUTH_SERVE_BATCH=1", "HOME=/x", "SLEUTH_OBS="})
	if !reflect.DeepEqual(got, []string{"SLEUTH_OBS", "SLEUTH_SERVE_BATCH"}) {
		t.Fatalf("sleuthKnobs = %v", got)
	}
}
