package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sleuth-rca/sleuth"
	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/collector"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// The incident workload: Synthetic-256 chaos incidents streamed as OTLP
// into a fresh collector each, then diagnosed.
const (
	incidentRPCs     = 256
	incidentCount    = 100 // distinct incidents per round
	incidentTrain    = 120 // normal traces the model is trained on
	incidentCalib    = 400 // normal traces for normals and SLOs
	ingestClients    = 2
	incidentIDBase   = 1_000_000
	incidentIDStride = 1_000
)

// incidentParams sizes one generated incident.
type incidentParams struct {
	minTraces, maxTraces int     // incident traces, drawn uniformly
	backgroundShare      float64 // healthy pre-incident traces per incident trace
	payloadSpans         int     // spans per OTLP export
}

var defaultIncident = incidentParams{minTraces: 100, maxTraces: 130, backgroundShare: 0.25, payloadSpans: 512}

// incidentInput is one generated incident: OTLP payloads in arrival order
// and the ground truth of every anomalous incident trace.
type incidentInput struct {
	payloads [][]byte
	spans    int
	bytes    int
	ids      []string            // incident trace IDs, sorted
	truth    map[string][]string // root-cause services per anomalous incident trace
	from, to int64               // start-time window of the incident traces (µs)
}

// genIncident simulates incident k of a seed: a chaos plan with at least
// two simultaneous faults, healthy traffic before it and the traces
// captured during it, encoded as OTLP exports of payloadSpans spans.
// Ground truth (counterfactual replay, the costly part) is derived only for
// the traces slo's IsAnomalous rule selects — the only ones diagnosed.
func genIncident(app *synth.App, s *sim.Simulator, slo *sleuth.Analyzer, seed uint64, k int, p incidentParams) (*incidentInput, error) {
	rng := xrand.New(seed).Split(fmt.Sprintf("incident-%d", k))
	pp := chaos.ScaledPlanParams(app)
	pp.MinFaults = 2
	plan := chaos.GeneratePlan(app, pp, rng.Split("plan"))
	inj := chaos.NewInjector(app, plan)
	nInc := rng.IntRange(p.minTraces, p.maxTraces)
	nBg := int(float64(nInc) * p.backgroundShare)
	base := incidentIDBase + k*incidentIDStride

	bg, err := s.Run(base, nBg)
	if err != nil {
		return nil, err
	}
	traces := make([]*trace.Trace, nInc)
	truths := make([][]string, nInc)
	anomalous := make([]bool, nInc)
	err = parallel(nInc, func(i int) error {
		res, err := s.SimulateRequest(base+nBg+i, inj)
		if err != nil {
			return err
		}
		traces[i] = res.Trace
		if anomalous[i] = slo.IsAnomalous(res.Trace); !anomalous[i] {
			return nil
		}
		smp, err := s.SimulateWithTruth(base+nBg+i, plan)
		if err != nil {
			return err
		}
		traces[i], truths[i] = smp.Result.Trace, smp.RootServices
		return nil
	})
	if err != nil {
		return nil, err
	}
	in := &incidentInput{truth: make(map[string][]string, nInc)}
	var spans []*trace.Span
	for _, r := range bg {
		spans = append(spans, r.Trace.Spans...)
	}
	for i, tr := range traces {
		spans = append(spans, tr.Spans...)
		in.ids = append(in.ids, tr.TraceID)
		if anomalous[i] {
			in.truth[tr.TraceID] = truths[i]
		}
		start := tr.Spans[tr.Roots()[0]].Start
		if i == 0 || start < in.from {
			in.from = start
		}
		if start > in.to {
			in.to = start
		}
	}
	sort.Strings(in.ids)
	for lo := 0; lo < len(spans); lo += p.payloadSpans {
		hi := min(lo+p.payloadSpans, len(spans))
		body, err := otel.EncodeOTLP(spans[lo:hi])
		if err != nil {
			return nil, err
		}
		in.payloads = append(in.payloads, body)
		in.bytes += len(body)
	}
	in.spans = len(spans)
	return in, nil
}

type incidentBench struct {
	seed   uint64
	app    *synth.App
	sim    *sim.Simulator
	train  []*trace.Trace
	calib  []*trace.Trace
	slo    *sleuth.Analyzer // SLOs only, for input generation
	client *http.Client

	analyzer *sleuth.Analyzer
	srv      *server
}

func newIncidentBench(seed uint64, _ string) bench { return &incidentBench{seed: seed} }

func (b *incidentBench) generate() error {
	b.app = synth.Synthetic(incidentRPCs, appSeed)
	b.sim = sim.New(b.app, sim.DefaultOptions(b.seed))
	var err error
	b.train, b.calib, err = normalCorpus(b.app, incidentTrain, incidentCalib)
	b.slo = sloAnalyzer(b.calib)
	return err
}

func (b *incidentBench) setup() (setupTimes, error) {
	b.close()
	var st setupTimes
	t0 := time.Now()
	m, err := sleuth.Train(b.train, trainConfig())
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	m.SetNormals(b.calib)
	b.analyzer = sleuth.NewAnalyzer(m)
	b.analyzer.SetSLOs(sleuth.SLOs(b.calib))
	t2 := time.Now()
	// The loopback listener each incident's fresh collector is served on.
	b.srv, err = startServer(http.NotFoundHandler())
	if err != nil {
		return st, err
	}
	b.client = newClient(ingestClients)
	t3 := time.Now()
	return setupTimes{total: t3.Sub(t0), train: t1.Sub(t0), normals: t2.Sub(t1)}, nil
}

func (b *incidentBench) close() {
	b.srv.close()
	b.srv = nil
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

// incidentStats accumulates the workload metrics over a phase.
type incidentStats struct {
	postMs                        []float64
	decodeNs, decoded             int64
	spans, bytes, written         int64
	kept, shed                    int64
	rejected, dropped             int64
	returned, anomalous, clusters int64
	noise, inferences             int64
}

func (b *incidentBench) measure(p *phase) error {
	// The traced pass covers the first half of the incidents: enough for
	// per-layer numbers, and it keeps a traced run within its time limit.
	incidents := incidentCount
	if p.rec != nil {
		incidents /= 2
	}
	var st incidentStats
	start := time.Now()
	var last *collector.Collector
	for round := 0; ; round++ {
		for k := 0; k < incidents; k++ {
			if round > 0 && time.Since(start) >= p.seconds {
				break
			}
			g := time.Now()
			in, err := genIncident(b.app, b.sim, b.slo, b.seed, k, defaultIncident)
			if err != nil {
				return fmt.Errorf("generating incident %d: %w", k, err)
			}
			p.genTime += time.Since(g)
			if last != nil {
				last.Close()
			}
			mark := readMem()
			last = b.runIncident(p, &st, in, k, round == 0)
			p.mem.add(mark)
			if p.rec != nil {
				b.decodeProbe(p, &st, in, k)
			}
		}
		if time.Since(start) >= p.seconds {
			break
		}
	}
	p.heapMB = liveHeapMB()
	last.Close()

	r := p.report
	r.set("ingest_spans_per_s", "spans/s", ratio(p.work, p.busy.Seconds()), p.ops)
	r.setPct("ingest_post_ms.p50", "ms", st.postMs, 50)
	r.setPct("ingest_post_ms.p99", "ms", st.postMs, 99)
	r.setPct("diagnosis_ms.p50", "ms", p.lat, 50)
	r.setPct("diagnosis_ms.p90", "ms", p.lat, 90)
	r.set("f1", "ratio", p.conf.F1(), p.conf.Queries)
	r.set("acc", "ratio", p.conf.ACC(), p.conf.Queries)

	if p.rec == nil {
		return nil
	}
	n := float64(p.ops)
	l := p.layer
	usPerSpan := ratio(float64(st.decodeNs)/1e3, float64(st.decoded))
	l.set("otel.decode_us_per_span", "us", usPerSpan, int(st.decoded))
	p.setShare("otel.decode_share", usPerSpan*float64(st.spans)/1e3, int(st.decoded))
	l.set("collector.bytes_per_span", "B", ratio(float64(st.bytes), float64(st.spans)), int(st.spans))
	l.set("collector.spans_rejected", "count", float64(st.rejected), 1)
	l.set("collector.spans_dropped", "count", float64(st.dropped), 1)
	l.setPct("ingest.flush_ms.p50", "ms", p.rec.durations("ingest.flush"), 50)
	p.setStageShare("ingest.flush_share", "ingest.flush")
	l.set("ingest.kept_ratio", "ratio", ratio(float64(st.kept), float64(st.kept+st.shed)), int(st.kept+st.shed))
	l.set("ingest.spans_written", "count", ratio(float64(st.written), n), p.ops)
	l.setPct("store.range_fetch_ms.p50", "ms", p.rec.durations("store.range_fetch"), 50)
	p.setStageShare("store.range_fetch_share", "store.range_fetch")
	l.set("store.traces_returned", "count", ratio(float64(st.returned), n), p.ops)
	// Analyze's stages, from the facade's own tracer spans.
	for _, stage := range []string{"featurize", "pairwise", "hdbscan", "medoids"} {
		l.setPct("cluster."+stage+"_ms.p50", "ms", p.rec.durations(stage), 50)
		p.setStageShare("cluster."+stage+"_share", stage)
	}
	l.set("cluster.anomalous_traces", "count", ratio(float64(st.anomalous), n), p.ops)
	l.set("cluster.clusters", "count", ratio(float64(st.clusters), n), p.ops)
	l.set("cluster.noise_ratio", "ratio", ratio(float64(st.noise), float64(st.anomalous)), int(st.anomalous))
	l.setPct("rca.localize_ms.p50", "ms", p.rec.durations("localize"), 50)
	p.setStageShare("rca.localize_share", "localize")
	l.set("rca.inference_reduction", "ratio", ratio(float64(st.anomalous), float64(st.inferences)), int(st.inferences))
	localizeCounters(p)
	return nil
}

// runIncident streams one incident into a fresh collector and diagnoses it.
// It returns the collector, still holding the incident, for the caller to
// close.
func (b *incidentBench) runIncident(p *phase, st *incidentStats, in *incidentInput, k int, firstRound bool) *collector.Collector {
	root := p.rec.start(fmt.Sprintf("incident-%d", k), span{}, "incident", "bench")
	defer root.end()

	// Ingest: a fresh collector with the shipped defaults starts, then
	// closed-loop clients post the payloads in arrival order. Both count
	// as ingest time.
	ingest := root.child("ingest", "bench")
	t0 := time.Now()
	sp := ingest.child("collector.start", "collector")
	c := collector.New(store.New())
	b.srv.set(c.Handler())
	sp.end()
	url := b.srv.url + "/v1/traces"
	var next atomic.Int64
	var mu sync.Mutex
	var accepted int
	var wg sync.WaitGroup
	for w := 0; w < ingestClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var acc, rej, drop, failed int
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.payloads) {
					break
				}
				sp := ingest.child("collector.post", "collector")
				t := time.Now()
				body, err := post(b.client, url, "application/json", in.payloads[i])
				lat = append(lat, msOf(time.Since(t).Nanoseconds()))
				sp.end()
				var ack struct{ Accepted, Rejected, Dropped int }
				if err == nil {
					err = json.Unmarshal(body, &ack)
				}
				if err != nil || ack.Rejected > 0 || ack.Dropped > 0 {
					failed++
				}
				acc, rej, drop = acc+ack.Accepted, rej+ack.Rejected, drop+ack.Dropped
			}
			mu.Lock()
			defer mu.Unlock()
			st.postMs = append(st.postMs, lat...)
			accepted += acc
			st.rejected += int64(rej)
			st.dropped += int64(drop)
			p.failures += failed
		}()
	}
	wg.Wait()
	acked := time.Now()
	ingest.end()
	p.attempts += len(in.payloads) + 1
	p.work += float64(in.spans)
	p.busy += acked.Sub(t0)
	if accepted != in.spans {
		p.problem("incident %d: collector accepted %d of %d spans", k, accepted, in.spans)
	}

	// Diagnosis: flush, fetch the incident window, filter, analyze.
	diag := root.child("diagnose", "bench")
	sp = diag.child("ingest.flush", "ingest")
	c.Ingest.Flush()
	sp.end()
	sp = diag.child("store.range_fetch", "store")
	fetched := c.Store.Traces(store.Query{MinStart: in.from, MaxStart: in.to})
	sp.end()
	sp = diag.child("sleuth.is_anomalous", "sleuth")
	var anomalous []*trace.Trace
	for _, tr := range fetched {
		if b.analyzer.IsAnomalous(tr) {
			anomalous = append(anomalous, tr)
		}
	}
	sort.Slice(anomalous, func(i, j int) bool { return anomalous[i].TraceID < anomalous[j].TraceID })
	sp.end()
	an := diag.child("sleuth.analyze", "sleuth")
	b.analyzer.Tracer = nil
	if p.rec != nil {
		b.analyzer.Tracer = sleuth.NewSelfTracer("")
	}
	rep := b.analyzer.Analyze(anomalous)
	an.end()
	done := time.Now()
	diag.end()
	p.lat = append(p.lat, msOf(done.Sub(acked).Nanoseconds()))
	p.ops++

	// Checks and scoring, outside the timed path.
	stats := c.Ingest.Stats()
	if stats.SpansWritten != int64(in.spans) {
		p.problem("incident %d: ingest wrote %d of %d spans", k, stats.SpansWritten, in.spans)
	}
	if missing := missingIDs(in.ids, fetched); missing > 0 {
		p.problem("incident %d: window fetch missed %d of %d incident traces", k, missing, len(in.ids))
		p.failures++
	}
	if !sameAnomalies(anomalous, in.truth) {
		p.problem("incident %d: the %d traces diagnosed are not the %d generated as anomalous", k, len(anomalous), len(in.truth))
	}
	if firstRound {
		for _, d := range rep.Diagnoses {
			for _, id := range d.TraceIDs {
				p.conf.Add(d.Services, in.truth[id])
			}
		}
		p.verdicts = append(p.verdicts, reportDigest(rep))
	}
	if p.rec == nil {
		return c
	}
	an.graft(b.analyzer.Tracer.Spans(), analyzeLayer)
	b.analyzer.Tracer = nil
	st.spans += int64(in.spans)
	st.bytes += int64(in.bytes)
	st.written += stats.SpansWritten
	st.kept += stats.TracesKept
	st.shed += stats.TracesShed
	st.returned += int64(len(fetched))
	st.anomalous += int64(len(anomalous))
	st.inferences += int64(rep.Inferences)
	for _, d := range rep.Diagnoses {
		if d.ClusterID < 0 {
			st.noise++
		} else {
			st.clusters++
		}
	}
	return c
}

// decodeProbe times otel.DecodeOTLP on every eighth of the incident's
// payloads, apart from the incident's own timings.
func (b *incidentBench) decodeProbe(p *phase, st *incidentStats, in *incidentInput, k int) {
	root := p.rec.start(fmt.Sprintf("decode-%d", k), span{}, "otel.decode_probe", "otel")
	defer root.end()
	for i := 0; i < len(in.payloads); i += 8 {
		t := time.Now()
		spans, err := otel.DecodeOTLP(in.payloads[i])
		st.decodeNs += time.Since(t).Nanoseconds()
		st.decoded += int64(len(spans))
		if err != nil {
			p.problem("incident %d: payload does not decode: %v", k, err)
		}
	}
}

// analyzeLayer maps the facade's Analyzer.Tracer stage names to layers.
func analyzeLayer(stage string) string {
	switch stage {
	case "featurize", "cluster", "pairwise", "hdbscan", "medoids":
		return "cluster"
	case "localize":
		return "rca"
	}
	return "sleuth"
}

// missingIDs counts the IDs in want absent from got.
func missingIDs(want []string, got []*trace.Trace) int {
	have := make(map[string]bool, len(got))
	for _, tr := range got {
		have[tr.TraceID] = true
	}
	n := 0
	for _, id := range want {
		if !have[id] {
			n++
		}
	}
	return n
}

// sameAnomalies reports whether the traces picked for diagnosis are exactly
// those generation found anomalous (and derived ground truth for).
func sameAnomalies(anomalous []*trace.Trace, truth map[string][]string) bool {
	if len(anomalous) != len(truth) {
		return false
	}
	for _, tr := range anomalous {
		if _, ok := truth[tr.TraceID]; !ok {
			return false
		}
	}
	return true
}

// reportDigest is a canonical digest of a Report: every diagnosis with its
// cluster, traces, root-cause services, pods and nodes.
func reportDigest(rep *sleuth.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "inferences=%d\n", rep.Inferences)
	for _, d := range rep.Diagnoses {
		fmt.Fprintf(&sb, "%d|%s|%s|%s|%s|%d\n", d.ClusterID,
			strings.Join(d.TraceIDs, ","), strings.Join(d.Services, ","),
			strings.Join(d.Pods, ","), strings.Join(d.Nodes, ","), d.PrunedCandidates)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}
