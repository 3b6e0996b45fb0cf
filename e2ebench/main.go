// Command e2ebench is Sleuth's end-to-end benchmark. It generates its
// inputs from a seed, drives one of three workloads through the shipped
// public entry points (collector HTTP handler, ingest pipeline, store, the
// sleuth facade, the model server's HTTP handler), checks that the outputs
// are correct, and prints every metric by name with its unit.
//
//	e2ebench --workload incident|rca-query|score-serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the last output line carries the end-to-end metrics; with
// --trace 1 the run measures once untraced and once traced, and the last
// line carries the per-layer metrics, taken from benchmark-side spans, the
// facade's Analyzer.Tracer stage spans and the counters obs.Enable exposes.
// The line before it is a full report: machine fingerprint, every metric
// with its sample count, and the correctness problems found, if any. The
// report and, for a traced run, the spans are also written under -out.
// README.md explains the workloads and the metric → layer → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/sleuth-rca/sleuth/internal/eval"
	"github.com/sleuth-rca/sleuth/internal/obs"
)

// A run sets the program up at least setupMinRepeats times and until
// setupBudget has been spent on set-up, at most setupMaxRepeats times;
// setup_s is the median. Cheap set-ups are repeated more often, so that
// every workload's median rests on a few seconds of set-up.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 25
	setupBudget     = 4 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// bench is one workload. generate builds the inputs every phase shares,
// setup builds the program state (replacing any earlier one), measure runs
// one measured phase, and close releases the state.
type bench interface {
	generate() error
	setup() (setupTimes, error)
	measure(p *phase) error
	close()
}

type setupTimes struct{ total, train, normals time.Duration }

var workloads = map[string]func(seed uint64, dir string) bench{
	"incident":    newIncidentBench,
	"rca-query":   newRCAQueryBench,
	"score-serve": newScoreServeBench,
}

// phase collects what one measured pass over a workload observed.
type phase struct {
	seconds time.Duration
	rec     *recorder // nil in the untraced pass

	lat      []float64 // verdict latency per operation (ms), in the order sent
	latBlock int       // latency_ms percentiles are block medians over this many (0: all)
	work     float64   // units of work done: spans, queries or requests
	busy     time.Duration
	ops      int
	attempts int
	failures int
	conf     eval.Confusion
	verdicts []string // canonical verdict per distinct input, first round

	heapMB   float64
	mem      memDelta
	genTime  time.Duration
	report   Metrics // workload-specific metrics, named as in README.md
	layer    Metrics // per-layer metrics of the traced pass
	problems []string
}

func newPhase(seconds time.Duration, rec *recorder) *phase {
	return &phase{seconds: seconds, rec: rec, report: Metrics{}, layer: Metrics{}}
}

// setShare records under name the share of the traced operations' time that
// ms, a sum of milliseconds over samples calls, accounts for.
func (p *phase) setShare(name string, ms float64, samples int) {
	p.layer.set(name, "ratio", ratio(ms, p.rec.rootMs()), samples)
}

// setStageShare records under name the share of the traced operations' time
// spent in the spans called stage.
func (p *phase) setStageShare(name, stage string) {
	d := p.rec.durations(stage)
	total := 0.0
	for _, ms := range d {
		total += ms
	}
	p.setShare(name, total, len(d))
}

func (p *phase) problem(format string, args ...any) {
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// memDelta accumulates allocation and GC counts over measured segments.
type memDelta struct {
	alloc uint64
	gc    uint32
}

type memMark struct {
	alloc uint64
	gc    uint32
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{alloc: ms.TotalAlloc, gc: ms.NumGC}
}

func (d *memDelta) add(from memMark) {
	to := readMem()
	d.alloc += to.alloc - from.alloc
	d.gc += to.gc - from.gc
}

// liveHeapMB forces two collections and returns the live heap in MB. The
// first moves sync.Pool contents to the pools' victim caches, the second
// frees them, so pooled scratch memory does not count as held state.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// report is the full record of a run, printed before the result line and
// written to the -out directory.
type report struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       int         `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Correct     bool        `json:"correct"`
	Problems    []string    `json:"problems,omitempty"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	EndToEnd    Metrics     `json:"endToEnd"`
	Named       Metrics     `json:"workloadMetrics"`
	PerLayer    Metrics     `json:"perLayer,omitempty"`
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: incident, rca-query or score-serve")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long one measured phase runs")
	traced := fs.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	out := fs.String("out", ".bench_build/e2ebench", "directory for the report and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload %s, --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if knobs := sleuthKnobs(os.Environ()); len(knobs) > 0 {
		fmt.Fprintf(stderr, "e2ebench: refusing to run with %s set: results must measure the shipped defaults\n", strings.Join(knobs, ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	b := mk(*seed, *out)
	defer b.close()
	rep, rec, err := measureRun(b, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	rep.Workload, rep.Seed, rep.Seconds, rep.Trace = *name, *seed, *seconds, *traced
	rep.Fingerprint = takeFingerprint()

	catalog, metrics := endToEnd, rep.EndToEnd
	if *traced == 1 {
		catalog, metrics = perLayer, rep.PerLayer
	}
	projected, err := project(metrics, catalog)
	if err != nil {
		rep.Correct = false
		rep.Problems = append(rep.Problems, err.Error())
	}

	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traced))
	if rec != nil {
		if err := rec.write(base + ".spans.jsonl"); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(base+".report.json", append(line, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "e2ebench: writing report: %v\n", err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "e2ebench: check failed: %s\n", p)
	}
	fmt.Fprintln(stdout, string(line))
	final, _ := json.Marshal(result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: projected})
	fmt.Fprintln(stdout, string(final))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sleuthKnobs lists the SLEUTH_* variables set in env.
func sleuthKnobs(env []string) []string {
	var out []string
	for _, kv := range env {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "SLEUTH_") {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// measureRun generates the inputs, sets up repeatedly, measures an
// untraced phase and, when traced, a traced phase over the same inputs.
func measureRun(b bench, seconds time.Duration, traced bool) (*report, *recorder, error) {
	rep := &report{EndToEnd: Metrics{}}
	t0 := time.Now()
	if err := b.generate(); err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	genTime := time.Since(t0)

	var totals, trains, normals []float64
	var spent time.Duration
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || spent < setupBudget); i++ {
		runtime.GC() // each set-up starts without the last one's garbage
		st, err := b.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		spent += st.total
		totals = append(totals, st.total.Seconds())
		trains = append(trains, st.train.Seconds())
		normals = append(normals, st.normals.Seconds())
	}

	un := newPhase(seconds, nil)
	if err := b.measure(un); err != nil {
		return nil, nil, err
	}
	e2e := rep.EndToEnd
	e2e.set("setup_s", "s", median(totals), len(totals))
	e2e.set("live_heap_mb", "MB", un.heapMB, 1)
	e2e.set("throughput_per_s", "1/s", ratio(un.work, un.busy.Seconds()), un.ops)
	e2e.set("f1", "ratio", un.conf.F1(), un.conf.Queries)
	e2e.set("acc", "ratio", un.conf.ACC(), un.conf.Queries)
	if !e2e.setBlockPct("latency_ms.p50", "ms", un.lat, un.latBlock, 50) || !e2e.setBlockPct("latency_ms.p90", "ms", un.lat, un.latBlock, 90) {
		un.problem("%d latency samples are too few for a p90", len(un.lat))
	}
	rep.Named = un.report
	rep.Named.set("failed_ratio", "ratio", ratio(float64(un.failures), float64(un.attempts)), un.attempts)
	rep.Attempted, rep.Failed, rep.Problems = un.attempts, un.failures, un.problems
	if !traced {
		rep.Correct = len(rep.Problems) == 0 && rep.Attempted > 0
		return rep, nil, nil
	}

	obs.Enable()
	tr := newPhase(seconds, newRecorder())
	if err := b.measure(tr); err != nil {
		return nil, nil, err
	}
	rep.Problems = append(rep.Problems, tr.problems...)
	// The traced pass may cover a prefix of the inputs (see incident).
	if len(tr.verdicts) == 0 || len(tr.verdicts) > len(un.verdicts) {
		rep.Problems = append(rep.Problems, fmt.Sprintf("untraced pass gave %d verdicts, traced pass %d", len(un.verdicts), len(tr.verdicts)))
	}
	for i := range min(len(un.verdicts), len(tr.verdicts)) {
		if un.verdicts[i] != tr.verdicts[i] {
			rep.Problems = append(rep.Problems, fmt.Sprintf("verdict %d differs between the untraced and traced pass", i))
			break
		}
	}
	pl := tr.layer
	pl.set("setup.train_s", "s", median(trains), len(trains))
	pl.set("setup.normals_s", "s", median(normals), len(normals))
	pl.set("setup.generate_s", "s", (genTime + un.genTime).Seconds(), 1)
	pl.set("go.alloc_mb_per_op", "MB", ratio(float64(un.mem.alloc)/(1<<20), float64(un.ops)), un.ops)
	pl.set("go.gc_cycles", "count", float64(un.mem.gc), 1)
	n := min(len(un.lat), len(tr.lat)) // the operations both passes ran
	unP50, _ := percentile(un.lat[:n], 50)
	trP50, _ := percentile(tr.lat[:n], 50)
	pl.set("tracing_overhead_pct", "%", 100*(ratio(trP50, unP50)-1), n)
	selfTimes := tr.rec.selfTimes()
	for _, l := range selfTimeLayers {
		self := msOf(selfTimes[l].Nanoseconds())
		tr.setShare(l+".self_share", self, tr.ops)
		pl.set(l+".self_ms_per_op", "ms", ratio(self, float64(tr.ops)), tr.ops)
	}
	fillAbsent(pl, perLayer)
	rep.PerLayer = pl
	rep.Attempted += tr.attempts
	rep.Failed += tr.failures
	rep.Correct = len(rep.Problems) == 0 && rep.Attempted > 0
	return rep, tr.rec, nil
}
