package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/sleuth-rca/sleuth"
	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// The rca-query workload: on-demand single-trace RCA at Synthetic-1024.
const (
	rcaRPCs       = 1024
	rcaTrain      = 60
	rcaCalib      = 300
	rcaSingle     = 400 // queries from ordinary chaos incidents
	rcaWide       = 400 // queries from wide-blast plans
	rcaMinQueries = 1000
	rcaIDBase     = 5_000_000
	// wideFaults exceeds the localiser's MaxCandidates, so restoring every
	// allowed candidate cannot explain the whole incident.
	wideFaults         = 8
	wideQueriesPerPlan = 4
)

// rcaQuery is one distinct query: a stored trace and its ground truth.
type rcaQuery struct {
	id    string
	truth []string
}

// genQueries simulates the query set: nSingle SLO-violating traces with a
// known root cause from ordinary chaos plans, then nWide from wide-blast
// plans that each fault wideFaults of the most-visited services. It returns
// the queries and their traces.
//
// Each kind splits over the app's flows in proportion to their request
// weights. Flows differ several-fold in trace size and so in query cost;
// fixing the split keeps the latency distribution, and its median, from
// depending on which flows a seed's faults happen to hit.
func genQueries(app *synth.App, s *sim.Simulator, calib []*trace.Trace, seed uint64, nSingle, nWide int) ([]rcaQuery, []*trace.Trace, error) {
	rng := xrand.New(seed).Split("rca-queries")
	slo := sloAnalyzer(calib)
	var queries []rcaQuery
	var traces []*trace.Trace
	id := rcaIDBase
	// collect simulates batches of traces under plan, at most maxBatches,
	// keeping up to want violating traces with a known root cause from
	// flows whose quota is not yet filled. Ground truth (counterfactual
	// replay, the costly part) is derived only for the candidates.
	collect := func(plan *chaos.Plan, want, maxBatches int, quota []int) error {
		inj := chaos.NewInjector(app, plan)
		for b := 0; b < maxBatches && want > 0; b++ {
			batch := make([]*sim.Sample, 8)
			err := parallel(len(batch), func(i int) error {
				res, err := s.SimulateRequest(id+i, inj)
				if err != nil || quota[res.FlowIndex] == 0 || !slo.IsAnomalous(res.Trace) {
					return err
				}
				batch[i], err = s.SimulateWithTruth(id+i, plan)
				return err
			})
			id += len(batch)
			if err != nil {
				return err
			}
			for _, smp := range batch {
				if smp == nil {
					continue
				}
				tr, flow := smp.Result.Trace, smp.Result.FlowIndex
				if want > 0 && quota[flow] > 0 && len(smp.RootServices) > 0 && slo.IsAnomalous(tr) {
					queries = append(queries, rcaQuery{id: tr.TraceID, truth: smp.RootServices})
					traces = append(traces, tr)
					quota[flow]--
					want--
				}
			}
		}
		return nil
	}
	// Many plans, few queries each, so that no single plan dominates the
	// query set's cost or accuracy.
	pp := chaos.ScaledPlanParams(app)
	quota := flowQuotas(app.FlowWeights, nSingle)
	for k := 0; sum(quota) > 0; k++ {
		if k > 20*nSingle {
			return nil, nil, fmt.Errorf("ordinary plans left per-flow quotas %v unfilled", quota)
		}
		plan := chaos.GeneratePlan(app, pp, rng.Split(fmt.Sprintf("plan-%d", k)))
		if err := collect(plan, 2, 1, quota); err != nil {
			return nil, nil, err
		}
	}
	quota = flowQuotas(app.FlowWeights, nWide)
	for k := 0; sum(quota) > 0; k++ {
		if k > 4*nWide {
			return nil, nil, fmt.Errorf("wide-blast plans left per-flow quotas %v unfilled", quota)
		}
		if err := collect(widePlan(app, calib, rng.Split(fmt.Sprintf("wide-%d", k))), wideQueriesPerPlan, 3, quota); err != nil {
			return nil, nil, err
		}
	}
	// Interleave the two kinds, so that every stretch of the query order
	// has the same mix.
	order := rng.Split("order").Perm(len(queries))
	shuffled := make([]rcaQuery, len(queries))
	for i, j := range order {
		shuffled[i] = queries[j]
	}
	return shuffled, traces, nil
}

// flowQuotas splits n over flows in proportion to weights, handing the
// rounding remainder to the flows with the largest fractional shares.
func flowQuotas(weights []float64, n int) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	quota := make([]int, len(weights))
	frac := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		share := float64(n) * w / total
		quota[i] = int(share)
		frac[i] = share - float64(quota[i])
		left -= quota[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for _, i := range order[:left] {
		quota[i]++
	}
	return quota
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// widePlan faults wideFaults services drawn from the sixteen most visited
// in the calibration traffic, with the severity ranges chaos plans use.
func widePlan(app *synth.App, calib []*trace.Trace, rng *xrand.Rand) *chaos.Plan {
	visits := map[string]int{}
	for _, tr := range calib {
		for _, svc := range tr.Services() {
			visits[svc]++
		}
	}
	var svcs []string
	for s := range visits {
		svcs = append(svcs, s)
	}
	sort.Slice(svcs, func(i, j int) bool {
		if visits[svcs[i]] != visits[svcs[j]] {
			return visits[svcs[i]] > visits[svcs[j]]
		}
		return svcs[i] < svcs[j]
	})
	svcs = svcs[:min(16, len(svcs))]
	types := []chaos.FaultType{chaos.FaultCPU, chaos.FaultMemory, chaos.FaultDisk}
	var faults []chaos.Fault
	for _, i := range rng.Perm(len(svcs))[:min(wideFaults, len(svcs))] {
		faults = append(faults, chaos.Fault{
			Type:       types[rng.Intn(len(types))],
			Level:      chaos.LevelContainer,
			Target:     svcs[i],
			SlowFactor: 4 + rng.Float64()*26,
			ErrorProb:  0.02 + 0.18*rng.Float64(),
		})
	}
	return chaos.NewPlan(app, faults...)
}

type rcaQueryBench struct {
	seed    uint64
	app     *synth.App
	train   []*trace.Trace
	calib   []*trace.Trace
	queries []rcaQuery
	store   *store.Store

	analyzer *sleuth.Analyzer
}

func newRCAQueryBench(seed uint64, _ string) bench { return &rcaQueryBench{seed: seed} }

func (b *rcaQueryBench) generate() error {
	b.app = synth.Synthetic(rcaRPCs, appSeed)
	s := sim.New(b.app, sim.DefaultOptions(b.seed))
	var err error
	b.train, b.calib, err = normalCorpus(b.app, rcaTrain, rcaCalib)
	if err != nil {
		return err
	}
	var traces []*trace.Trace
	b.queries, traces, err = genQueries(b.app, s, b.calib, b.seed, rcaSingle, rcaWide)
	if err != nil {
		return err
	}
	// The store holds the queried traces among healthy traffic.
	b.store = store.New()
	for _, tr := range append(b.calib, traces...) {
		b.store.AddTrace(tr)
	}
	return nil
}

func (b *rcaQueryBench) setup() (setupTimes, error) {
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
	return setupTimes{total: t2.Sub(t0), train: t1.Sub(t0), normals: t2.Sub(t1)}, nil
}

func (b *rcaQueryBench) close() {}

func (b *rcaQueryBench) measure(p *phase) error {
	loc := b.analyzer.Localizer
	n := len(b.queries)
	start := time.Now()
	mark := readMem()
	var fetchMs, localizeMs []float64
	// Whole rounds only, so every distinct query weighs the same.
	for i := 0; i%n != 0 || i < rcaMinQueries || time.Since(start) < p.seconds; i++ {
		q := b.queries[i%n]
		root := p.rec.start(fmt.Sprintf("query-%d", i), span{}, "rca_query", "bench")
		p.attempts++
		t0 := time.Now()
		sp := root.child("store.id_fetch", "store")
		trs := b.store.Traces(store.Query{TraceIDs: []string{q.id}})
		sp.end()
		t1 := time.Now()
		if len(trs) != 1 || trs[0].TraceID != q.id {
			root.end()
			p.failures++
			p.problem("query %s: by-ID fetch returned %d traces", q.id, len(trs))
			continue
		}
		tr := trs[0]
		sp = root.child("rca.localize", "rca")
		res := loc.LocalizeDetailed(tr, sloFor(b.analyzer, tr))
		sp.end()
		t2 := time.Now()
		root.end()
		p.lat = append(p.lat, msOf(t2.Sub(t0).Nanoseconds()))
		fetchMs = append(fetchMs, msOf(t1.Sub(t0).Nanoseconds()))
		localizeMs = append(localizeMs, msOf(t2.Sub(t1).Nanoseconds()))
		p.ops++
		v := resultDigest(res)
		if i < n {
			p.verdicts = append(p.verdicts, v)
			p.conf.Add(res.Services, q.truth)
		} else if v != p.verdicts[i%n] {
			p.problem("query %s: verdict changed between rounds", q.id)
		}
	}
	p.busy = time.Since(start)
	p.mem.add(mark)
	p.work = float64(p.ops)
	p.latBlock = n // one block per round
	p.heapMB = liveHeapMB()

	r := p.report
	r.setPct("rca_query_ms.p50", "ms", p.lat, 50)
	r.setPct("rca_query_ms.p99", "ms", p.lat, 99)
	r.set("f1", "ratio", p.conf.F1(), p.conf.Queries)
	r.set("acc", "ratio", p.conf.ACC(), p.conf.Queries)
	if p.rec == nil {
		return nil
	}
	p.layer.setPct("store.id_fetch_ms.p50", "ms", fetchMs, 50)
	p.setStageShare("store.id_fetch_share", "store.id_fetch")
	p.layer.setPct("rca.localize_ms.p50", "ms", localizeMs, 50)
	p.setStageShare("rca.localize_share", "rca.localize")
	localizeCounters(p)
	return nil
}

// localizeCounters derives the localiser and GNN per-query counts from the
// counters obs.Enable exposes, over the traced phase.
func localizeCounters(p *phase) {
	c := obs.Global().Snapshot().Counters
	q := float64(c["rca.localizations"])
	n := int(c["rca.localizations"])
	l := p.layer
	l.set("rca.counterfactuals_per_query", "count", ratio(float64(c["rca.counterfactuals"]), q), n)
	l.set("rca.rows_updated_per_query", "count", ratio(float64(c["rca.counterfactual_rows_updated"]), q), n)
	l.set("rca.pruned_per_query", "count", ratio(float64(c["rca.pruned_candidates"]), q), n)
	l.set("rca.normalized_ratio", "ratio", ratio(float64(c["rca.normalized"]), q), n)
	l.set("gnn.forward_nodes_per_query", "count", ratio(float64(c["gnn.forward_nodes"]), q), n)
	l.set("gnn.incremental_rows_per_query", "count", ratio(float64(c["gnn.incremental_rows"]), q), n)
}

// resultDigest is a canonical rendering of a localisation result.
func resultDigest(r rca.Result) string {
	return fmt.Sprintf("%s|%s|%s|%t|%x|%d", strings.Join(r.Services, ","), strings.Join(r.Pods, ","),
		strings.Join(r.Nodes, ","), r.Normalized, r.PredictedDuration, r.PrunedCandidates)
}
