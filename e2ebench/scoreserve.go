package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sleuth-rca/sleuth"
	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/modelserver"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// The score-serve workload: closed-loop /score clients against a
// Synthetic-64 model published to the registry.
const (
	scoreRPCs        = 64
	scoreTrain       = 200
	scoreCalib       = 300
	scorePool        = 1000 // normal and anomalous traces each
	scorePerPlan     = 2    // anomalous traces kept per chaos plan
	scoreDistinct    = 2048 // distinct requests, repeated in rounds
	scoreMinRequests = 4096
	scoreClients     = 2
	scoreModel       = "sleuth"
	scoreIDBase      = 8_000_000
	// lossPercentile of per-trace losses on normal traffic is the MeanLoss
	// threshold above which a request's traces count as anomalous.
	lossPercentile = 95
)

// scoreSizes and scoreWeights are the seeded request-size mix (traces).
var (
	scoreSizes   = []int{1, 2, 4, 8}
	scoreWeights = []float64{0.4, 0.3, 0.2, 0.1}
)

// scoreReq is one distinct /score request body and its ground truth.
type scoreReq struct {
	body      []byte
	anomalous bool
}

// genScoreRequests draws n requests from a pool of normal traces and a pool
// of SLO-violating chaos traces with a known root cause. Each request holds
// traces of one kind only.
func genScoreRequests(app *synth.App, s *sim.Simulator, calib []*trace.Trace, seed uint64, n int) ([]scoreReq, error) {
	rng := xrand.New(seed).Split("score-requests")
	res, err := s.Run(scoreIDBase, scorePool)
	if err != nil {
		return nil, err
	}
	normal := sim.Traces(res)
	slo := sloAnalyzer(calib)
	var anomalous []*trace.Trace
	id := scoreIDBase + scorePool
	pp := chaos.ScaledPlanParams(app)
	for k := 0; len(anomalous) < scorePool; k++ {
		if k > 20*scorePool {
			return nil, fmt.Errorf("found %d of %d violating traces", len(anomalous), scorePool)
		}
		plan := chaos.GeneratePlan(app, pp, rng.Split(fmt.Sprintf("plan-%d", k)))
		inj := chaos.NewInjector(app, plan)
		batch := make([]*sim.Sample, 8)
		if err := parallel(len(batch), func(i int) error {
			res, err := s.SimulateRequest(id+i, inj)
			if err != nil || !slo.IsAnomalous(res.Trace) {
				return err
			}
			// Ground truth (counterfactual replay) only for violations.
			batch[i], err = s.SimulateWithTruth(id+i, plan)
			return err
		}); err != nil {
			return nil, err
		}
		id += len(batch)
		kept := 0
		for _, smp := range batch {
			if smp != nil && kept < scorePerPlan && len(anomalous) < scorePool && len(smp.RootServices) > 0 {
				anomalous = append(anomalous, smp.Result.Trace)
				kept++
			}
		}
	}
	reqs := make([]scoreReq, n)
	for i := range reqs {
		size := scoreSizes[rng.WeightedChoice(scoreWeights)]
		pool := normal
		reqs[i].anomalous = rng.Bernoulli(0.5)
		if reqs[i].anomalous {
			pool = anomalous
		}
		// Consecutive pool entries: distinct traces within a request.
		first := rng.Intn(len(pool))
		var spans []*trace.Span
		for j := 0; j < size; j++ {
			spans = append(spans, pool[(first+j)%len(pool)].Spans...)
		}
		body, err := json.Marshal(modelserver.ScoreRequest{Spans: spans})
		if err != nil {
			return nil, err
		}
		reqs[i].body = body
	}
	return reqs, nil
}

type scoreServeBench struct {
	seed  uint64
	dir   string
	train []*trace.Trace
	calib []*trace.Trace
	reqs  []scoreReq

	model  *sleuth.Model
	regDir string
	srv    *server
	client *http.Client
	setups int
}

func newScoreServeBench(seed uint64, dir string) bench {
	return &scoreServeBench{seed: seed, dir: dir}
}

func (b *scoreServeBench) generate() error {
	app := synth.Synthetic(scoreRPCs, appSeed)
	s := sim.New(app, sim.DefaultOptions(b.seed))
	var err error
	b.train, b.calib, err = normalCorpus(app, scoreTrain, scoreCalib)
	if err != nil {
		return err
	}
	b.reqs, err = genScoreRequests(app, s, b.calib, b.seed, scoreDistinct)
	return err
}

func (b *scoreServeBench) setup() (setupTimes, error) {
	b.close()
	var st setupTimes
	t0 := time.Now()
	m, err := sleuth.Train(b.train, trainConfig())
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	m.SetNormals(b.calib)
	t2 := time.Now()
	b.setups++
	b.regDir = filepath.Join(b.dir, fmt.Sprintf("registry-%d-%d", os.Getpid(), b.setups))
	reg, err := modelserver.Open(b.regDir)
	if err != nil {
		return st, err
	}
	if _, err := reg.Publish(scoreModel, m, "e2ebench", nil); err != nil {
		return st, err
	}
	reg.WarmCache()
	b.srv, err = startServer((&modelserver.Server{Registry: reg}).Handler())
	if err != nil {
		return st, err
	}
	b.client = newClient(scoreClients)
	b.model = m
	t3 := time.Now()
	return setupTimes{total: t3.Sub(t0), train: t1.Sub(t0), normals: t2.Sub(t1)}, nil
}

func (b *scoreServeBench) close() {
	b.srv.close()
	b.srv = nil
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.regDir != "" {
		_ = os.RemoveAll(b.regDir) // best effort: a leftover registry only costs disk
		b.regDir = ""
	}
}

func (b *scoreServeBench) measure(p *phase) error {
	url := b.srv.url + "/models/" + scoreModel + "/latest/score"
	n := len(b.reqs)
	first := make([][]byte, n) // first-round response bodies, by request
	type sample struct {
		i  int // request index: the order requests were sent in
		ms float64
	}
	var samples []sample
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	mark := readMem()
	for w := 0; w < scoreClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []sample
			var failures int
			for {
				i := int(next.Add(1)) - 1
				if i >= scoreMinRequests && time.Since(start) >= p.seconds {
					break
				}
				root := p.rec.start(fmt.Sprintf("request-%d", i), span{}, "score_request", "bench")
				sp := root.child("modelserver.post", "modelserver")
				t := time.Now()
				body, err := post(b.client, url, "application/json", b.reqs[i%n].body)
				lat = append(lat, sample{i, msOf(time.Since(t).Nanoseconds())})
				sp.end()
				root.end()
				if err != nil {
					failures++
				} else if i < n {
					first[i] = body
				}
			}
			mu.Lock()
			defer mu.Unlock()
			samples = append(samples, lat...)
			p.failures += failures
		}()
	}
	wg.Wait()
	p.busy = time.Since(start)
	p.mem.add(mark)
	sort.Slice(samples, func(a, b int) bool { return samples[a].i < samples[b].i })
	for _, s := range samples {
		p.lat = append(p.lat, s.ms)
	}
	p.ops = len(p.lat)
	p.attempts += p.ops
	p.work = float64(p.ops)
	p.latBlock = n // one block per pass over the distinct requests
	p.heapMB = liveHeapMB()
	if p.rec != nil {
		serveCounters(p)
	}

	// Verdicts and the serving-path check, outside the timed path. The
	// loss threshold only grades verdicts, so it is placed here rather
	// than at set-up.
	_, _, losses := b.model.ScoreBatch(b.calib, 0)
	threshold := stats.Percentile(losses, lossPercentile)
	for i, req := range b.reqs {
		if first[i] == nil {
			p.problem("request %d got no response", i)
			continue
		}
		var resp modelserver.ScoreResponse
		if err := json.Unmarshal(first[i], &resp); err != nil {
			p.problem("request %d: bad response: %v", i, err)
			continue
		}
		if err := b.checkAgainstModel(req.body, resp); err != nil {
			p.problem("request %d: %v", i, err)
		}
		p.verdicts = append(p.verdicts, responseDigest(resp))
		p.conf.Add(anomalyLabel(resp.MeanLoss > threshold), anomalyLabel(req.anomalous))
	}

	r := p.report
	r.set("score_req_per_s", "req/s", ratio(p.work, p.busy.Seconds()), p.ops)
	r.setPct("score_ms.p50", "ms", p.lat, 50)
	r.setPct("score_ms.p99", "ms", p.lat, 99)
	r.set("f1", "ratio", p.conf.F1(), p.conf.Queries)
	r.set("acc", "ratio", p.conf.ACC(), p.conf.Queries)
	return nil
}

// checkAgainstModel requires a /score response to be bit-identical to a
// direct Model.ScoreBatch over the same request's traces.
func (b *scoreServeBench) checkAgainstModel(body []byte, resp modelserver.ScoreResponse) error {
	var req modelserver.ScoreRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	traces, _ := trace.AssembleAll(req.Spans)
	sort.Slice(traces, func(i, j int) bool { return traces[i].TraceID < traces[j].TraceID })
	durs, errs, losses := b.model.ScoreBatch(traces, 0)
	if len(resp.Results) != len(traces) {
		return fmt.Errorf("%d results for %d traces", len(resp.Results), len(traces))
	}
	total := 0.0
	for i, tr := range traces {
		got := resp.Results[i]
		if got.TraceID != tr.TraceID || !sameBits(got.DurScaled, durs[i]) || !sameBits(got.ErrProb, errs[i]) {
			return fmt.Errorf("trace %s: served scores differ from Model.ScoreBatch", tr.TraceID)
		}
		total += losses[i]
	}
	if math.Float64bits(resp.MeanLoss) != math.Float64bits(total/float64(len(losses))) {
		return fmt.Errorf("served meanLoss %v differs from Model.ScoreBatch %v", resp.MeanLoss, total/float64(len(losses)))
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// anomalyLabel is a request's verdict as a root-cause-style label set, so
// eval.Confusion scores it with the Table 3 definitions.
func anomalyLabel(anomalous bool) []string {
	if anomalous {
		return []string{"anomalous"}
	}
	return nil
}

func responseDigest(r modelserver.ScoreResponse) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%x|%d", r.MeanLoss, r.Skipped)
	for _, res := range r.Results {
		fmt.Fprintf(&sb, "|%s:%x:%x", res.TraceID, res.DurScaled, res.ErrProb)
	}
	return sb.String()
}

// serveCounters reads the serving-path per-layer metrics from the
// histograms and counters obs.Enable exposes.
func serveCounters(p *phase) {
	snap := obs.Global().Snapshot()
	c, h := snap.Counters, snap.Histograms
	l := p.layer
	core, server := h["core.score.batch_us"], h["modelserver.score_us"]
	size, wait := h["modelserver.batch.size"], h["modelserver.batch.queue_wait_us"]
	l.set("core.score_ms.p50", "ms", core.P50/1e3, int(core.Count))
	p.setShare("core.score_share", core.Sum/1e3, int(core.Count))
	l.set("modelserver.score_ms.p50", "ms", server.P50/1e3, int(server.Count))
	p.setShare("modelserver.score_share", server.Sum/1e3, int(server.Count))
	l.set("modelserver.batch_size.mean", "count", size.Mean, int(size.Count))
	l.set("modelserver.queue_wait_ms.p50", "ms", wait.P50/1e3, int(wait.Count))
	p.setShare("modelserver.queue_wait_share", wait.Sum/1e3, int(wait.Count))
	// Whether the batcher pays off depends on how requests reach it: solo
	// (no other request in flight, the queue is bypassed) or queued, and
	// how many queued requests then share one flush.
	reqs := float64(c["modelserver.score.requests"])
	perFlush := h["modelserver.batch.requests"]
	l.set("modelserver.solo_ratio", "ratio", ratio(float64(c["modelserver.batch.flush_solo"]), reqs), int(reqs))
	l.set("modelserver.batched_ratio", "ratio", ratio(perFlush.Sum, reqs), int(reqs))
	l.set("modelserver.requests_per_batch.mean", "count", perFlush.Mean, int(perFlush.Count))
	hits, misses := float64(c["modelserver.cache.hits"]), float64(c["modelserver.cache.misses"])
	l.set("modelserver.cache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
}
