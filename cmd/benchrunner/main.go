// Command benchrunner regenerates every table and figure of the paper's
// evaluation section against the simulated substrate, and measures the
// pipeline's hot paths (training, pairwise distances, batched inference)
// as repeatable micro-experiments.
//
// Usage:
//
//	benchrunner -exp all                 # everything at quick effort
//	benchrunner -exp table3 -full        # one experiment at paper-scale effort
//	benchrunner -exp fig1,fig5 -seed 7
//	benchrunner -exp all -benchout . -stamp 2026-08-06T00:00:00Z
//	benchrunner -exp hot -benchout /tmp/now -baseline bench-records
//	benchrunner -exp train -cpuprofile cpu.out -memprofile mem.out
//
// Experiments: fig1 fig3 table1 table3 fig5 fig6 fig7 fig8 instances
// ablation, plus the hot paths train/pairwise/predict-batch/hdbscan/ingest/
// serve/rca ("hot" selects all seven; "cluster" is shorthand for the
// hdbscan clustering-pipeline experiment; "ingest" measures the staged
// streaming pipeline's spans/sec and the sharded store's abnormal-fetch
// flatness; "serve" is the closed-loop /score comparison of the legacy
// per-request path against the shipped server, with a hard ≥2×
// throughput / equal-or-better p99 acceptance check; "rca" compares the
// pre-rework per-call localisation loop against the incremental
// counterfactual session with and without candidate pruning, with hard
// set-identity and ≥2× ns/query acceptance checks).
//
// With -benchout, every experiment additionally writes a machine-readable
// BENCH_<name>.json (op name, ns/op, allocs/op, bytes/op, timestamp from
// -stamp, machine fingerprint) into the given directory, so the performance
// trajectory of the pipeline accumulates across commits. `make bench`
// drives this. With -baseline, each record is also diffed against the
// committed BENCH_<name>.json in the given directory and the per-benchmark
// ns/op and allocs/op deltas are printed (`make bench-compare`).
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments, so kernel work is tuned from real profiles rather than
// guesswork.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	sleuth "github.com/sleuth-rca/sleuth"
	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/eval"
	"github.com/sleuth-rca/sleuth/internal/ingest"
	"github.com/sleuth-rca/sleuth/internal/modelserver"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// benchResult is the machine-readable record of one experiment run,
// mirroring the fields of testing.B output so downstream tooling can treat
// both uniformly.
type benchResult struct {
	Op          string `json:"op"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	Timestamp   string `json:"timestamp"`
	Seed        uint64 `json:"seed"`
	Full        bool   `json:"full"`
	// Machine says where the record was measured; absolute ns/op only
	// compares between records with the same fingerprint.
	Machine *machine `json:"machine,omitempty"`
}

// machine is the fingerprint of the host and build that produced a record.
type machine struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

// thisMachine fingerprints the running process. The git revision comes from
// the binary's VCS stamp, so it is "unknown" under `go run`, and carries a
// "+dirty" suffix when the build had uncommitted changes.
func thisMachine() *machine {
	m := &machine{CPU: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch {
			case kv.Key == "vcs.revision":
				rev = kv.Value
			case kv.Key == "vcs.modified" && kv.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	m.GitRev = rev + dirty
	return m
}

// recordName maps an experiment name to its BENCH_<name>.json filename
// component (dashes would be awkward in some downstream tooling).
func recordName(op string) string { return strings.ReplaceAll(op, "-", "_") }

// ingestCorpus builds pre-decoded span batches for the streaming-ingest
// experiment: nTraces traces of spansPerTrace spans, tracesPerBatch traces
// per Submit-sized batch, with every 100th trace carrying an error span so
// the sampler's always-keep rule and the store's error index stay on the
// measured paths.
func ingestCorpus(nTraces, spansPerTrace, tracesPerBatch int) [][]*trace.Span {
	var batches [][]*trace.Span
	batch := make([]*trace.Span, 0, tracesPerBatch*spansPerTrace)
	for t := 0; t < nTraces; t++ {
		id := fmt.Sprintf("trace-%08d", t)
		root := &trace.Span{
			TraceID: id, SpanID: id + "-s0", Service: "front", Name: "handle",
			Kind: trace.KindServer, Start: 0, End: int64(1000 + t%500), Error: t%100 == 0,
		}
		batch = append(batch, root)
		for s := 1; s < spansPerTrace; s++ {
			batch = append(batch, &trace.Span{
				TraceID: id, SpanID: fmt.Sprintf("%s-s%d", id, s), ParentID: root.SpanID,
				Service: "backend", Name: "query", Kind: trace.KindClient,
				Start: int64(10 * s), End: int64(10*s + 100),
			})
		}
		if (t+1)%tracesPerBatch == 0 {
			batches = append(batches, batch)
			batch = make([]*trace.Span, 0, tracesPerBatch*spansPerTrace)
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return batches
}

// pctDelta returns the relative change from base to now in percent.
func pctDelta(base, now float64) float64 {
	if base == 0 {
		return 0
	}
	return (now - base) / base * 100
}

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiments, 'all', or 'hot'")
		full       = flag.Bool("full", false, "paper-scale effort (slow)")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		benchout   = flag.String("benchout", "", "directory for BENCH_<name>.json records (empty = off)")
		stamp      = flag.String("stamp", "", "timestamp recorded in BENCH_*.json (default: now, RFC 3339)")
		metrics    = flag.Bool("metrics", false, "enable the obs registry and print its snapshot at exit")
		baseline   = flag.String("baseline", "", "directory with baseline BENCH_<name>.json records to diff against")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments")
		memprofile = flag.String("memprofile", "", "write an allocation profile at exit")
	)
	flag.Parse()

	if *metrics {
		obs.Enable()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: creating %s: %v\n", *cpuprofile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: creating %s: %v\n", *memprofile, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: writing alloc profile: %v\n", err)
			}
		}()
	}
	if *stamp == "" {
		*stamp = time.Now().UTC().Format(time.RFC3339)
	}
	if *benchout != "" {
		if err := os.MkdirAll(*benchout, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: creating %s: %v\n", *benchout, err)
			os.Exit(1)
		}
	}

	effort := eval.QuickEffort(*seed)
	if *full {
		effort = eval.FullEffort(*seed)
	}

	selected := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		switch e = strings.TrimSpace(e); e {
		case "all":
			for _, x := range []string{"fig1", "fig3", "table1", "table3", "fig5", "fig6", "fig7", "fig8", "instances", "ablation", "train", "pairwise", "predict-batch", "hdbscan", "ingest", "serve", "rca"} {
				selected[x] = true
			}
		case "hot":
			for _, x := range []string{"train", "pairwise", "predict-batch", "hdbscan", "ingest", "serve", "rca"} {
				selected[x] = true
			}
		case "cluster":
			selected["hdbscan"] = true
		default:
			selected[e] = true
		}
	}

	// record persists one benchResult and, with -baseline, prints the
	// per-benchmark ns/op and allocs/op deltas against the committed record.
	record := func(res benchResult) {
		res.Machine = thisMachine()
		if *baseline != "" {
			path := filepath.Join(*baseline, "BENCH_"+recordName(res.Op)+".json")
			if data, err := os.ReadFile(path); err == nil {
				var base benchResult
				if err := json.Unmarshal(data, &base); err == nil {
					fmt.Printf("vs baseline (%s):\n", base.Timestamp)
					fmt.Printf("  ns/op     %12d -> %12d  (%+.1f%%)\n",
						base.NsPerOp, res.NsPerOp, pctDelta(float64(base.NsPerOp), float64(res.NsPerOp)))
					fmt.Printf("  allocs/op %12d -> %12d  (%+.1f%%)\n",
						base.AllocsPerOp, res.AllocsPerOp, pctDelta(float64(base.AllocsPerOp), float64(res.AllocsPerOp)))
					fmt.Printf("  bytes/op  %12d -> %12d  (%+.1f%%)\n",
						base.BytesPerOp, res.BytesPerOp, pctDelta(float64(base.BytesPerOp), float64(res.BytesPerOp)))
				}
			} else {
				fmt.Printf("(no baseline record at %s)\n", path)
			}
		}
		if *benchout == "" {
			return
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: encoding %s record: %v\n", res.Op, err)
			os.Exit(1)
		}
		path := filepath.Join(*benchout, "BENCH_"+recordName(res.Op)+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("(record written to %s)\n", path)
	}

	run := func(name, title string, fn func() (string, error)) {
		if !selected[name] {
			return
		}
		fmt.Printf("\n=== %s — %s ===\n", strings.ToUpper(name), title)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := fn()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("(%s in %s)\n", name, elapsed.Round(time.Millisecond))
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		record(benchResult{
			Op:          name,
			NsPerOp:     elapsed.Nanoseconds(),
			AllocsPerOp: after.Mallocs - before.Mallocs,
			BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
			Timestamp:   *stamp,
			Seed:        *seed,
			Full:        *full,
		})
	}

	// runHot measures fn over iters iterations with setup excluded: a GC
	// fence before the loop keeps leftover garbage from the setup phase out
	// of the per-iteration numbers.
	runHot := func(name, title string, iters int, setup func() (func(), error)) {
		if !selected[name] {
			return
		}
		fmt.Printf("\n=== %s — %s ===\n", strings.ToUpper(name), title)
		fn, err := setup()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", name, err)
			os.Exit(1)
		}
		fn() // warm caches (embedder registry, lazy tensors) outside the window
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		res := benchResult{
			Op:          name,
			NsPerOp:     elapsed.Nanoseconds() / int64(iters),
			AllocsPerOp: (after.Mallocs - before.Mallocs) / uint64(iters),
			BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(iters),
			Timestamp:   *stamp,
			Seed:        *seed,
			Full:        *full,
		}
		fmt.Printf("%d iterations: %d ns/op, %d allocs/op, %d B/op\n",
			iters, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
		record(res)
	}

	run("table1", "benchmark specifications", func() (string, error) {
		t := eval.Table1(effort.Seed)
		return t.String(), nil
	})
	run("fig1", "n-sigma rule degradation with scale", func() (string, error) {
		rows, err := eval.Fig1(effort)
		if err != nil {
			return "", err
		}
		return eval.RenderFig1(rows), nil
	})
	run("fig3", "span duration CDF", func() (string, error) {
		s, err := eval.Fig3(effort)
		if err != nil {
			return "", err
		}
		return s.String(), nil
	})
	run("table3", "RCA accuracy comparison", func() (string, error) {
		res, err := eval.Table3(effort)
		if err != nil {
			return "", err
		}
		return eval.RenderTable3(res), nil
	})
	run("fig5", "training/inference scaling", func() (string, error) {
		rows, err := eval.Fig5(effort)
		if err != nil {
			return "", err
		}
		return eval.RenderFig5(rows), nil
	})
	run("fig6", "service updates", func() (string, error) {
		points, err := eval.Fig6(effort)
		if err != nil {
			return "", err
		}
		return eval.RenderFig6(points), nil
	})
	run("fig7", "transfer learning", func() (string, error) {
		points, err := eval.Fig7(effort)
		if err != nil {
			return "", err
		}
		return eval.RenderFig7(points), nil
	})
	run("fig8", "semantic sensitivity", func() (string, error) {
		points, err := eval.Fig8(effort)
		if err != nil {
			return "", err
		}
		return eval.RenderFig8(points), nil
	})
	run("instances", "instance-level (service/pod/node) accuracy", func() (string, error) {
		il, err := eval.InstanceTable(effort)
		if err != nil {
			return "", err
		}
		return eval.RenderInstanceLevel(il), nil
	})
	// Hot-path micro-experiments: the three paths the training and
	// clustering engines spend their time on, sized like the in-tree Go
	// benchmarks so records are comparable across commits.
	runHot("train", "data-parallel mini-batch training (64 traces, batch 32, 4 workers)", 3, func() (func(), error) {
		app := sleuth.NewSyntheticApp(64, *seed)
		world := sleuth.NewWorld(app, *seed)
		traces, err := world.SimulateNormal(64)
		if err != nil {
			return nil, err
		}
		return func() {
			if _, err := sleuth.Train(traces, sleuth.TrainConfig{
				Epochs: 1, BatchSize: 32, Workers: 4, Seed: *seed,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: train: %v\n", err)
				os.Exit(1)
			}
		}, nil
	})
	runHot("pairwise", "pairwise weighted-Jaccard distance matrix (256 traces)", 10, func() (func(), error) {
		app := sleuth.NewSyntheticApp(64, *seed)
		world := sleuth.NewWorld(app, *seed)
		traces, err := world.SimulateNormal(256)
		if err != nil {
			return nil, err
		}
		sets := cluster.TraceSets(traces, cluster.DefaultMaxAncestors)
		return func() { _ = cluster.Pairwise(sets) }, nil
	})
	runHot("hdbscan", "HDBSCAN pipeline: core distances + MST + condense + select + medoids (2048 traces)", 3, func() (func(), error) {
		app := sleuth.NewSyntheticApp(64, *seed)
		world := sleuth.NewWorld(app, *seed)
		traces, err := world.SimulateNormal(2048)
		if err != nil {
			return nil, err
		}
		sets := cluster.TraceSets(traces, cluster.DefaultMaxAncestors)
		m := cluster.Pairwise(sets)
		opts := cluster.DefaultOptions()
		return func() {
			labels := cluster.HDBSCAN(m, opts)
			_ = cluster.Medoids(m, labels)
		}, nil
	})
	runHot("predict-batch", "batched inference (256 traces, GOMAXPROCS workers)", 5, func() (func(), error) {
		app := sleuth.NewSyntheticApp(64, *seed)
		world := sleuth.NewWorld(app, *seed)
		traces, err := world.SimulateNormal(256)
		if err != nil {
			return nil, err
		}
		model, err := sleuth.Train(traces[:64], sleuth.TrainConfig{Epochs: 1, BatchSize: 32, Seed: *seed})
		if err != nil {
			return nil, err
		}
		return func() { _, _ = model.PredictBatch(traces, 0) }, nil
	})

	// The streaming-ingest experiment is hand-rolled rather than a runHot
	// call: besides ns/op it reports spans/sec through the full pipeline
	// (the paper-scale number) and the abnormal-fetch flatness check
	// (sharded error-trace scans at 1× and 10× corpus).
	if selected["ingest"] {
		fmt.Printf("\n=== INGEST — staged streaming ingest: submit → concentrate → tail-sample → write ===\n")
		nTraces := 20000
		iters := 5
		if *full {
			nTraces, iters = 100000, 3
		}
		const spansPerTrace, tracesPerBatch = 8, 256
		batches := ingestCorpus(nTraces, spansPerTrace, tracesPerBatch)
		runIngest := func() {
			st := store.New()
			p := ingest.NewPipeline(st, ingest.Config{
				SampleRate: 0.1, TraceTTL: -1, BaselineRefresh: -1,
				QueueSize: len(batches), // measure throughput, not drops
			})
			for _, b := range batches {
				p.Submit(b)
			}
			p.Stop()
		}
		runIngest() // warm outside the window
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			runIngest()
		}
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		spans := nTraces * spansPerTrace
		res := benchResult{
			Op:          "ingest",
			NsPerOp:     elapsed.Nanoseconds() / int64(iters),
			AllocsPerOp: (after.Mallocs - before.Mallocs) / uint64(iters),
			BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(iters),
			Timestamp:   *stamp,
			Seed:        *seed,
			Full:        *full,
		}
		fmt.Printf("%d iterations × %d spans (sample 0.1): %d ns/op, %d allocs/op, %d B/op\n",
			iters, spans, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
		fmt.Printf("throughput: %.2fM spans/sec (%d ns/span)\n",
			float64(spans*iters)/elapsed.Seconds()/1e6, res.NsPerOp/int64(spans))

		// Abnormal-fetch flatness: with error traces spread uniformly, a
		// limited OnlyErrors scan touches ~Limit/error-rate traces whatever
		// the corpus holds, so sharded latency must stay flat as the store
		// grows 10×.
		fmt.Printf("abnormal-fetch (OnlyErrors, Limit 100) vs corpus size:\n")
		var lat [2]time.Duration
		for i, n := range []int{nTraces, 10 * nTraces} {
			st := store.NewSharded(store.DefaultShards())
			for _, b := range ingestCorpus(n, 2, tracesPerBatch) {
				st.AddSpans(b)
			}
			q := store.Query{OnlyErrors: true, Limit: 100}
			if got := len(st.Traces(q)); got != 100 {
				fmt.Fprintf(os.Stderr, "benchrunner: ingest: abnormal fetch returned %d traces\n", got)
				os.Exit(1)
			}
			runtime.GC() // keep corpus-build garbage out of the timings
			best := time.Duration(1<<63 - 1)
			for rep := 0; rep < 5; rep++ {
				qs := time.Now()
				_ = st.Traces(q)
				if d := time.Since(qs); d < best {
					best = d
				}
			}
			lat[i] = best
			fmt.Printf("  %8d traces: %s\n", n, best.Round(time.Microsecond))
		}
		fmt.Printf("  10× corpus latency ratio: %.2fx\n", float64(lat[1])/float64(lat[0]))
		record(res)
	}

	// The serve experiment is closed-loop rather than a runHot call: 8
	// concurrent clients hammer an in-process model server and two arms are
	// compared — the pre-rework path (per-request gob load from disk + one
	// forward for predictions and another for the loss, reproduced inline)
	// and the shipped server (cached model, one single-pass ScoreBatch per
	// request). The acceptance bar is hard: shipped must deliver ≥2× the
	// legacy throughput at an equal-or-better p99, or the run fails.
	if selected["serve"] {
		fmt.Printf("\n=== SERVE — closed-loop /score: legacy vs shipped (8 clients) ===\n")
		dir, err := os.MkdirTemp("", "benchserve")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: serve: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		reg, err := modelserver.Open(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: serve: %v\n", err)
			os.Exit(1)
		}
		app := sleuth.NewSyntheticApp(16, *seed)
		world := sleuth.NewWorld(app, *seed)
		traces, err := world.SimulateNormal(36)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: serve: %v\n", err)
			os.Exit(1)
		}
		model, err := sleuth.Train(traces[:20], sleuth.TrainConfig{Epochs: 1, BatchSize: 32, Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: serve: %v\n", err)
			os.Exit(1)
		}
		if _, err := reg.Publish("prod", model, "synthetic-16", nil); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: serve: %v\n", err)
			os.Exit(1)
		}
		query := traces[20:]

		const clients = 8
		rounds := 40
		if *full {
			rounds = 160
		}
		// Pre-marshalled 2-trace request bodies, one per client.
		payloads := make([][]byte, clients)
		for c := range payloads {
			var body modelserver.ScoreRequest
			for _, tr := range query[(c*2)%len(query) : (c*2)%len(query)+2] {
				body.Spans = append(body.Spans, tr.Spans...)
			}
			payloads[c], _ = json.Marshal(body)
		}
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

		// drive runs the closed loop against one arm and reports throughput
		// plus the latency distribution's p50/p99.
		drive := func(url string, rounds int) (thr float64, p50, p99 time.Duration) {
			lat := make([]time.Duration, 0, clients*rounds)
			var mu sync.Mutex
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						qs := time.Now()
						resp, err := client.Post(url+"/models/prod/latest/score", "application/json", bytes.NewReader(payloads[c]))
						if err != nil {
							fmt.Fprintf(os.Stderr, "benchrunner: serve: %v\n", err)
							os.Exit(1)
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							fmt.Fprintf(os.Stderr, "benchrunner: serve: status %d\n", resp.StatusCode)
							os.Exit(1)
						}
						d := time.Since(qs)
						mu.Lock()
						lat = append(lat, d)
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			elapsed := time.Since(start)
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			return float64(len(lat)) / elapsed.Seconds(), lat[len(lat)/2], lat[len(lat)*99/100]
		}

		legacySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			// The pre-rework serving path, inlined: load the gob from disk
			// on every request, run the GNN once for predictions and AGAIN
			// for the loss.
			m, _, err := reg.Latest("prod")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			var body modelserver.ScoreRequest
			if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			trs, skipped := trace.AssembleAll(body.Spans)
			sort.Slice(trs, func(i, j int) bool { return trs[i].TraceID < trs[j].TraceID })
			resp := modelserver.ScoreResponse{Results: make([]modelserver.ScoreResult, len(trs)), Skipped: skipped}
			durs, errProbs := m.PredictBatch(trs, 0)
			for i, tr := range trs {
				resp.Results[i] = modelserver.ScoreResult{TraceID: tr.TraceID, DurScaled: durs[i], ErrProb: errProbs[i]}
			}
			resp.MeanLoss = m.MeanLoss(trs)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp)
		}))
		defer legacySrv.Close()
		shippedSrv := httptest.NewServer((&modelserver.Server{Registry: reg}).Handler())
		defer shippedSrv.Close()

		// Warm both arms (connections, model cache, arena pool) before
		// measuring, then measure legacy → shipped.
		for _, u := range []string{legacySrv.URL, shippedSrv.URL} {
			drive(u, rounds/4+1)
		}
		legacyThr, legacyP50, legacyP99 := drive(legacySrv.URL, rounds)
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		shippedThr, shippedP50, shippedP99 := drive(shippedSrv.URL, rounds)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)

		fmt.Printf("  legacy   %8.1f req/s   p50 %-10s p99 %s\n", legacyThr, legacyP50.Round(time.Microsecond), legacyP99.Round(time.Microsecond))
		fmt.Printf("  shipped  %8.1f req/s   p50 %-10s p99 %s\n", shippedThr, shippedP50.Round(time.Microsecond), shippedP99.Round(time.Microsecond))
		fmt.Printf("shipped vs legacy: %.2fx throughput, p99 %s vs %s\n",
			shippedThr/legacyThr, shippedP99.Round(time.Microsecond), legacyP99.Round(time.Microsecond))
		if shippedThr < 2*legacyThr || shippedP99 > legacyP99 {
			fmt.Fprintf(os.Stderr, "benchrunner: serve: shipped must be >=2x legacy throughput at equal-or-better p99 (got %.2fx, p99 %v vs %v)\n",
				shippedThr/legacyThr, shippedP99, legacyP99)
			os.Exit(1)
		}
		requests := uint64(clients * rounds)
		record(benchResult{
			Op:          "serve",
			NsPerOp:     int64(1e9 / shippedThr),
			AllocsPerOp: (after.Mallocs - before.Mallocs) / requests,
			BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / requests,
			Timestamp:   *stamp,
			Seed:        *seed,
			Full:        *full,
		})
	}

	// The rca experiment compares three localisation engines on the trigger
	// mix a deployed localizer sees against a Synthetic-256 app: the
	// pre-rework per-call counterfactual loop (one encode + full GNN forward
	// per restoration question), the incremental counterfactual session with
	// pruning off, and the shipped default (session + candidate pruning).
	// Half the queries are SLO violations from random chaos plans, half are
	// fault-free tail-latency violations — the latter exhaust the whole
	// candidate loop and are where the incremental engine's cached forwards
	// pay off. Acceptance is hard on both axes: legacy and session must
	// predict identical service sets on every query (the engine is
	// bit-identical by construction), and the default engine must run ≥2×
	// faster than legacy per query, or the run fails.
	if selected["rca"] {
		fmt.Printf("\n=== RCA — localisation: per-call loop vs incremental session vs session+pruning (Synthetic-256) ===\n")
		app := synth.Synthetic(256, *seed)
		simr := sim.New(app, sim.DefaultOptions(*seed))
		normalRes, err := simr.Run(0, 80)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: rca: %v\n", err)
			os.Exit(1)
		}
		normal := sim.Traces(normalRes)
		mixed := append([]*trace.Trace{}, normal...)
		for b := 0; b < 6; b++ {
			plan := chaos.GeneratePlan(app, chaos.DefaultPlanParams(), xrand.New(*seed+uint64(100+b)))
			res, err := simr.RunWithInjector(1000+b*10, 8, chaos.NewInjector(app, plan))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: rca: %v\n", err)
				os.Exit(1)
			}
			mixed = append(mixed, sim.Traces(res)...)
		}
		model := core.NewModel(core.Config{EmbeddingDim: 8, Hidden: 24, Seed: *seed})
		if _, err := model.Train(mixed, core.TrainOptions{Epochs: 3, LearningRate: 3e-3, Seed: *seed}); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: rca: %v\n", err)
			os.Exit(1)
		}
		model.SetNormals(normal)
		var durs []float64
		for _, r := range normalRes {
			durs = append(durs, float64(r.Duration))
		}
		slo := stats.Percentile(durs, 95)

		// Query workload, mirroring internal/rca's benchQueries: half
		// single-incident chaos violations (the loop usually normalises
		// after restoring the true root), half from a wide-blast plan that
		// faults more services than MaxCandidates — the cascading-outage
		// case where no affordable restoration subset clears every error and
		// the candidate loop runs to exhaustion.
		const nQueries = 32
		var queries []*trace.Trace
		for p := 0; len(queries) < nQueries/2 && p < nQueries*8; p++ {
			plan := chaos.GeneratePlan(app, chaos.DefaultPlanParams(), xrand.New(*seed+uint64(500+p)))
			for id := 0; id < 4 && len(queries) < nQueries/2; id++ {
				sample, err := simr.SimulateWithTruth(p*10+id, plan)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchrunner: rca: %v\n", err)
					os.Exit(1)
				}
				if float64(sample.Result.Duration) > slo || sample.Result.Errored {
					queries = append(queries, sample.Result.Trace)
				}
			}
		}
		wideWant := len(app.Services) / 2
		if min := rca.DefaultOptions().MaxCandidates + 4; wideWant < min {
			wideWant = min
		}
		wideStep := len(app.Services) / wideWant
		if wideStep < 1 {
			wideStep = 1
		}
		var wideFaults []chaos.Fault
		for svc := 0; svc < len(app.Services) && len(wideFaults) < wideWant; svc += wideStep {
			wideFaults = append(wideFaults, chaos.Fault{
				Type: chaos.FaultCPU, Level: chaos.LevelContainer,
				Target: app.Services[svc].Name, SlowFactor: 3, ErrorProb: 0.9,
			})
		}
		widePlan := chaos.NewPlan(app, wideFaults...)
		for id := 2000; len(queries) < nQueries && id < 2000+nQueries*20; id++ {
			sample, err := simr.SimulateWithTruth(id, widePlan)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: rca: %v\n", err)
				os.Exit(1)
			}
			if float64(sample.Result.Duration) > slo || sample.Result.Errored {
				queries = append(queries, sample.Result.Trace)
			}
		}
		if len(queries) < nQueries {
			fmt.Fprintf(os.Stderr, "benchrunner: rca: only %d/%d SLO-violating queries found\n", len(queries), nQueries)
			os.Exit(1)
		}

		prunedOpts := rca.DefaultOptions()
		prunedOpts.Prune = true
		unprunedOpts := prunedOpts
		unprunedOpts.Prune = false
		arms := []struct {
			name     string
			localize func(tr *trace.Trace) []string
		}{
			{"legacy", func(tr *trace.Trace) []string {
				return rca.NewLocalizer(model, unprunedOpts).LocalizeReference(tr, slo).Services
			}},
			{"session", func(tr *trace.Trace) []string {
				return rca.NewLocalizer(model, unprunedOpts).Localize(tr, slo)
			}},
			{"pruned", func(tr *trace.Trace) []string {
				return rca.NewLocalizer(model, prunedOpts).Localize(tr, slo)
			}},
		}

		rounds := 5
		if *full {
			rounds = 20
		}
		sets := make([][][]string, len(arms))
		ns := make([]int64, len(arms))
		var prunedAllocs, prunedBytes uint64
		for ai, arm := range arms {
			for _, q := range queries { // warm arena pools and model caches
				_ = arm.localize(q)
			}
			runtime.GC()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for r := 0; r < rounds; r++ {
				for qi, q := range queries {
					pred := arm.localize(q)
					if r == 0 {
						if sets[ai] == nil {
							sets[ai] = make([][]string, len(queries))
						}
						sets[ai][qi] = pred
					}
				}
			}
			elapsed := time.Since(start)
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			n := int64(rounds * len(queries))
			ns[ai] = elapsed.Nanoseconds() / n
			if arm.name == "pruned" {
				prunedAllocs = (after.Mallocs - before.Mallocs) / uint64(n)
				prunedBytes = (after.TotalAlloc - before.TotalAlloc) / uint64(n)
			}
			fmt.Printf("  %-8s %10d ns/query\n", arm.name, ns[ai])
		}

		equal := func(a, b []string) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		for qi := range queries {
			if !equal(sets[0][qi], sets[1][qi]) {
				fmt.Fprintf(os.Stderr, "benchrunner: rca: session diverged from legacy on query %d: %v != %v\n",
					qi, sets[1][qi], sets[0][qi])
				os.Exit(1)
			}
		}
		agree := 0
		for qi := range queries {
			if equal(sets[0][qi], sets[2][qi]) {
				agree++
			}
		}
		speedup := float64(ns[0]) / float64(ns[2])
		fmt.Printf("pruned+session vs legacy: %.2fx ns/query; session==legacy sets on %d/%d; pruned agreement %d/%d\n",
			speedup, len(queries), len(queries), agree, len(queries))
		if speedup < 2 {
			fmt.Fprintf(os.Stderr, "benchrunner: rca: pruned+session must be >=2x legacy ns/query (got %.2fx)\n", speedup)
			os.Exit(1)
		}
		record(benchResult{
			Op:          "localize",
			NsPerOp:     ns[2],
			AllocsPerOp: prunedAllocs,
			BytesPerOp:  prunedBytes,
			Timestamp:   *stamp,
			Seed:        *seed,
			Full:        *full,
		})
	}

	run("ablation", "design-choice ablations", func() (string, error) {
		var b strings.Builder
		dmax, err := eval.AblationDmax(effort)
		if err != nil {
			return "", err
		}
		b.WriteString("d_max ancestor window:\n")
		b.WriteString(eval.RenderAblationDmax(dmax))
		win, err := eval.AblationClippedReLU(effort)
		if err != nil {
			return "", err
		}
		b.WriteString("\nEq. 2 aggregation window:\n")
		b.WriteString(eval.RenderAblationWindow(win))
		epsRows, err := eval.AblationEpsilon(effort)
		if err != nil {
			return "", err
		}
		b.WriteString("\nHDBSCAN selection epsilon:\n")
		b.WriteString(eval.RenderAblationEpsilon(epsRows))
		return b.String(), nil
	})

	if *metrics {
		if data, err := json.MarshalIndent(obs.Global().Snapshot(), "", "  "); err == nil {
			fmt.Printf("\nmetrics snapshot:\n%s\n", data)
		}
	}
}
