package modelserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/obs/alert"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// servingFixture publishes a trained model and returns held-out query
// traces alongside the in-memory model for computing expected outputs.
func servingFixture(t *testing.T, seed uint64, nQuery int) (*Registry, *core.Model, []*trace.Trace) {
	t.Helper()
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	app := synth.Synthetic(16, seed)
	s := sim.New(app, sim.DefaultOptions(seed))
	res, err := s.Run(0, 20+nQuery)
	if err != nil {
		t.Fatal(err)
	}
	traces := sim.Traces(res)
	m := core.NewModel(core.Config{EmbeddingDim: 8, Hidden: 16, Seed: seed})
	if _, err := m.Train(traces[:20], core.TrainOptions{Epochs: 1, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("prod", m, "synthetic-16", nil); err != nil {
		t.Fatal(err)
	}
	return reg, m, traces[20 : 20+nQuery]
}

// scoreVia posts one request's traces to srv and decodes the response.
func scoreVia(t *testing.T, url string, traces []*trace.Trace) ScoreResponse {
	t.Helper()
	out, err := postScore(url, traces)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// postScore is scoreVia for goroutines other than the test's own.
func postScore(url string, traces []*trace.Trace) (ScoreResponse, error) {
	var body ScoreRequest
	for _, tr := range traces {
		body.Spans = append(body.Spans, tr.Spans...)
	}
	payload, _ := json.Marshal(body)
	resp, err := http.Post(url+"/models/prod/latest/score", "application/json", bytes.NewReader(payload))
	if err != nil {
		return ScoreResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ScoreResponse{}, fmt.Errorf("score status = %d", resp.StatusCode)
	}
	var out ScoreResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// expectResponse computes the reference ScoreResponse for one request
// directly on the in-memory model, scoring one trace at a time on a single
// worker and summing the losses in sorted order. Comparing served
// responses against it checks that request composition and concurrency
// change no bits.
func expectResponse(m *core.Model, traces []*trace.Trace) ScoreResponse {
	sorted := append([]*trace.Trace(nil), traces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TraceID < sorted[j].TraceID })
	resp := ScoreResponse{Results: make([]ScoreResult, len(sorted))}
	total := 0.0
	for i, tr := range sorted {
		durs, errs, losses := m.ScoreBatch([]*trace.Trace{tr}, 1)
		resp.Results[i] = ScoreResult{TraceID: tr.TraceID, DurScaled: durs[0], ErrProb: errs[0]}
		total += losses[0]
	}
	resp.MeanLoss = total / float64(len(sorted))
	return resp
}

// sameResponse compares two ScoreResponses bit-for-bit (JSON float64s
// round-trip exactly, so HTTP adds no tolerance).
func sameResponse(t *testing.T, tag string, got, want ScoreResponse) {
	t.Helper()
	if len(got.Results) != len(want.Results) || got.Skipped != want.Skipped {
		t.Fatalf("%s: shape %d/%d vs %d/%d", tag, len(got.Results), got.Skipped, len(want.Results), want.Skipped)
	}
	if got.MeanLoss != want.MeanLoss {
		t.Fatalf("%s: meanLoss %v != %v", tag, got.MeanLoss, want.MeanLoss)
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.TraceID != w.TraceID {
			t.Fatalf("%s result %d: trace %s != %s", tag, i, g.TraceID, w.TraceID)
		}
		for j := range w.DurScaled {
			if g.DurScaled[j] != w.DurScaled[j] || g.ErrProb[j] != w.ErrProb[j] {
				t.Fatalf("%s result %d span %d: prediction differs", tag, i, j)
			}
		}
	}
}

// TestBatchedScoreBitIdentical checks that a multi-trace request is scored
// exactly as its traces would be one by one: 8 concurrent clients send 3
// traces each, then one request carries all 24, and every response must
// match the single-trace reference bit-for-bit. Request composition must
// never leak into results.
func TestBatchedScoreBitIdentical(t *testing.T) {
	reg, m, query := servingFixture(t, 11, 24)
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	responses := make([]ScoreResponse, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			responses[c], errs[c] = postScore(srv.URL, query[c*3:c*3+3])
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		sameResponse(t, fmt.Sprintf("client %d", c), responses[c], expectResponse(m, query[c*3:c*3+3]))
	}
	sameResponse(t, "all traces", scoreVia(t, srv.URL, query), expectResponse(m, query))
}

// TestScoreSinglePass is the op-count gate for the double-forward fix: one
// /score request over n traces must run the single-pass score kernel
// exactly n times (the old path ran one forward for predictions and
// another for the loss — two per trace).
func TestScoreSinglePass(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	reg, _, query := servingFixture(t, 19, 6)
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	scoreVia(t, srv.URL, query)
	if got := obs.C("core.score.traces").Value(); got != int64(len(query)) {
		t.Fatalf("score kernel ran %d traces, want %d", got, len(query))
	}
}

// TestConcurrentScoreStorm hammers one server from 8 goroutines with mixed
// 1–8-trace requests and checks every response bit-for-bit against the
// single-trace reference. Run under -race this is the serving path's
// thread-safety proof: the cached model and its pooled arenas are shared
// by every in-flight request.
func TestConcurrentScoreStorm(t *testing.T) {
	reg, m, query := servingFixture(t, 23, 24)
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	const clients, rounds = 8, 4
	request := func(c, r int) []*trace.Trace {
		n := 1 + (c+r*3)%8
		off := (c*5 + r*7) % (len(query) - n + 1)
		return query[off : off+n]
	}
	got := make([][rounds]ScoreResponse, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := postScore(srv.URL, request(c, r))
				if err != nil {
					t.Errorf("client %d round %d: %v", c, r, err)
					return
				}
				got[c][r] = resp
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for c := 0; c < clients; c++ {
		for r := 0; r < rounds; r++ {
			sameResponse(t, fmt.Sprintf("client %d round %d", c, r), got[c][r], expectResponse(m, request(c, r)))
		}
	}
}

// TestScoreAdmissionSheds pins the /score admission bound: with every slot
// held (as by maxInflightScores requests mid-inference), a complete request
// is shed with 503 + Retry-After and counted, and once one slot frees the
// next request is scored and releases its slot again.
func TestScoreAdmissionSheds(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	reg, m, query := servingFixture(t, 41, 2)
	s := &Server{Registry: reg}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.scoring.Store(maxInflightScores)
	resp := postRaw(t, srv.URL, query[:1])
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	if got := obs.C("modelserver.score.shed").Value(); got != 1 {
		t.Fatalf("modelserver.score.shed = %d, want 1", got)
	}
	if got := s.scoring.Load(); got != maxInflightScores {
		t.Fatalf("shed request left %d slots held, want %d", got, maxInflightScores)
	}

	s.scoring.Store(maxInflightScores - 1)
	sameResponse(t, "after release", scoreVia(t, srv.URL, query[:1]), expectResponse(m, query[:1]))
	if got := s.scoring.Load(); got != maxInflightScores-1 {
		t.Fatalf("%d slots held after the request finished, want %d", got, maxInflightScores-1)
	}
}

// TestScoreStalledBodyHoldsNoSlot guards the admission bound against slow
// clients: with one slot left, a request whose body has not arrived must
// not take it, so a complete request is still scored rather than shed.
func TestScoreStalledBodyHoldsNoSlot(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	reg, m, query := servingFixture(t, 47, 2)
	s := &Server{Registry: reg}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	s.scoring.Store(maxInflightScores - 1)

	var body ScoreRequest
	body.Spans = append(body.Spans, query[0].Spans...)
	payload, _ := json.Marshal(body)
	pr, pw := io.Pipe()
	defer pw.Close() // on an early failure, lets the stalled request end so srv.Close returns
	stalled := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/models/prod/latest/score", "application/json", pr)
		if err != nil {
			t.Error(err)
			stalled <- nil
			return
		}
		stalled <- resp
	}()
	// The handler has started once it counts the request; its body is
	// still unwritten.
	for deadline := time.Now().Add(10 * time.Second); obs.C("modelserver.score.requests").Value() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	sameResponse(t, "beside a stalled body", scoreVia(t, srv.URL, query[1:]), expectResponse(m, query[1:]))
	if got := obs.C("modelserver.score.shed").Value(); got != 0 {
		t.Fatalf("modelserver.score.shed = %d, want 0", got)
	}

	if _, err := pw.Write(payload); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	first := <-stalled
	if first == nil {
		t.FailNow()
	}
	var got ScoreResponse
	err := json.NewDecoder(first.Body).Decode(&got)
	first.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sameResponse(t, "stalled request", got, expectResponse(m, query[:1]))
	if held := s.scoring.Load(); held != maxInflightScores-1 {
		t.Fatalf("%d slots held after both requests finished, want %d", held, maxInflightScores-1)
	}
}

// postRaw posts one request's traces to srv's /score and returns the raw
// response; the caller closes its body.
func postRaw(t *testing.T, url string, traces []*trace.Trace) *http.Response {
	t.Helper()
	var body ScoreRequest
	for _, tr := range traces {
		body.Spans = append(body.Spans, tr.Spans...)
	}
	payload, _ := json.Marshal(body)
	resp, err := http.Post(url+"/models/prod/latest/score", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestModelServerRuleSeriesRegistered checks the stock modelserver alert
// pack against the metrics the server really emits: after one scored and
// one shed request and a sampler sweep, every modelserver.* series a rule
// names must exist. A renamed or deleted metric would otherwise leave its
// rule silently watching nothing.
func TestModelServerRuleSeriesRegistered(t *testing.T) {
	obs.Disable()
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	models, _, query := servingFixture(t, 43, 1)
	s := &Server{Registry: models}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	scoreVia(t, srv.URL, query)
	s.scoring.Store(maxInflightScores) // every slot taken, so the next request is shed
	resp := postRaw(t, srv.URL, query)
	s.scoring.Store(0)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}

	var names []string
	for _, r := range alert.ModelServerRules() {
		for _, n := range []string{r.Series, r.NumSeries, r.DenSeries} {
			if strings.HasPrefix(n, "modelserver.") {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("modelserver rule pack names no modelserver series")
	}
	sp := obs.NewSampler(reg, time.Millisecond)
	sp.Start()
	defer sp.Stop()
	for _, n := range names {
		for deadline := time.Now().Add(10 * time.Second); reg.LookupSeries(n) == nil || reg.LookupSeries(n).Len() == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("rule series %q never registered", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestScoreSheddingRuleFires checks that modelserver_score_shedding fires
// on the first overload episode after start-up, even when that episode is
// a single shed request: the sampler must have recorded the counter at zero
// before the shed, or the rule's delta would read 0.
func TestScoreSheddingRuleFires(t *testing.T) {
	obs.Disable()
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	models, _, query := servingFixture(t, 53, 1)
	s := &Server{Registry: models}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sp := obs.NewSampler(reg, time.Millisecond)
	sp.Start()
	defer sp.Stop()
	waitLast := func(want float64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if ser := reg.LookupSeries("modelserver.score.shed"); ser != nil {
				if last, ok := ser.Last(); ok && last.V == want {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("modelserver.score.shed never sampled at %v", want)
			}
		}
	}
	waitLast(0)
	s.scoring.Store(maxInflightScores)
	resp := postRaw(t, srv.URL, query)
	s.scoring.Store(0)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	waitLast(1)

	var rule alert.Rule
	for _, r := range alert.ModelServerRules() {
		if r.Name == "modelserver_score_shedding" {
			rule = r
		}
	}
	if rule.Name == "" {
		t.Fatal("modelserver_score_shedding missing from the modelserver pack")
	}
	eng := alert.New(reg, time.Hour)
	if err := eng.Add(rule); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	eng.Tick(now)
	eng.Tick(now.Add(rule.For.D()))
	if f := eng.Firing(); len(f) != 1 || f[0].Name != rule.Name {
		t.Fatalf("firing after one shed = %+v, want %s", f, rule.Name)
	}
}

// TestClusterEndpoints drives the streaming clustering API end to end:
// adds, stats, forced rebuild, and the 404 when the engine is absent.
func TestClusterEndpoints(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&Server{Registry: reg, Cluster: NewStreamCluster()}).Handler())
	defer srv.Close()

	app := synth.Synthetic(16, 29)
	s := sim.New(app, sim.DefaultOptions(29))
	res, err := s.Run(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	var body ScoreRequest
	for _, tr := range sim.Traces(res) {
		body.Spans = append(body.Spans, tr.Spans...)
	}
	payload, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+"/cluster/add", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var out ClusterAddResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Results) != 30 || out.Stats.Points != 30 {
		t.Fatalf("add response: %d results, stats %+v", len(out.Results), out.Stats)
	}

	resp, err = http.Get(srv.URL + "/cluster/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Points int `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Points != 30 {
		t.Fatalf("stats points = %d", stats.Points)
	}

	resp, err = http.Post(srv.URL+"/cluster/rebuild", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild status = %d", resp.StatusCode)
	}

	// Engine absent → 404.
	bare := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/cluster/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled cluster status = %d", resp.StatusCode)
	}
}

// TestServeLatencySmoke is the make-verify gate for the serving rework:
// under 8 concurrent clients the default server's p99 must beat the
// original path (per-request disk model load + one forward pass for the
// predictions + another for the losses), reproduced here as a legacy
// handler over the same registry.
func TestServeLatencySmoke(t *testing.T) {
	reg, _, query := servingFixture(t, 31, 16)
	shipped := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer shipped.Close()

	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// The pre-PR serving path, inlined: load the gob from disk, run the
		// GNN once for predictions and AGAIN for the loss.
		m, _, err := reg.Latest("prod")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var body ScoreRequest
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		traces, skipped := trace.AssembleAll(body.Spans)
		sort.Slice(traces, func(i, j int) bool { return traces[i].TraceID < traces[j].TraceID })
		resp := ScoreResponse{Results: make([]ScoreResult, len(traces)), Skipped: skipped}
		durs, errs, _ := m.ScoreBatch(traces, 0)
		for i, tr := range traces {
			resp.Results[i] = ScoreResult{TraceID: tr.TraceID, DurScaled: durs[i], ErrProb: errs[i]}
		}
		_, _, losses := m.ScoreBatch(traces, 0)
		total := 0.0
		for _, l := range losses {
			total += l
		}
		if len(losses) > 0 {
			resp.MeanLoss = total / float64(len(losses))
		}
		writeJSON(w, resp)
	}))
	defer legacy.Close()

	// 2000 requests per measured arm, so the p99 has twenty samples beyond
	// it rather than being the single slowest request, taken in alternating
	// blocks so a slow spell of the host lands on both arms.
	const clients, rounds, blocks = 8, 5, 50
	// Keep-alive for every client: an undrained body or an idle pool
	// smaller than the client count turns requests into TCP handshakes.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	run := func(url string, lat []time.Duration) []time.Duration {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				slice := query[(c*2)%len(query) : (c*2)%len(query)+2]
				var body ScoreRequest
				for _, tr := range slice {
					body.Spans = append(body.Spans, tr.Spans...)
				}
				payload, _ := json.Marshal(body)
				for r := 0; r < rounds; r++ {
					start := time.Now()
					resp, err := client.Post(url+"/models/prod/latest/score", "application/json", bytes.NewReader(payload))
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					d := time.Since(start)
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return lat
	}

	// Warm both servers (connections, caches) before measuring, and collect
	// before each measured block so neither arm pays for the other's garbage.
	run(shipped.URL, nil)
	run(legacy.URL, nil)
	var shippedLat, legacyLat []time.Duration
	for b := 0; b < blocks; b++ {
		runtime.GC()
		shippedLat = run(shipped.URL, shippedLat)
		runtime.GC()
		legacyLat = run(legacy.URL, legacyLat)
	}
	p99 := func(lat []time.Duration) time.Duration {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}
	sp, lp := p99(shippedLat), p99(legacyLat)
	t.Logf("p99 shipped=%v legacy=%v", sp, lp)
	if sp >= lp {
		t.Fatalf("shipped p99 %v does not beat legacy p99 %v", sp, lp)
	}
}
