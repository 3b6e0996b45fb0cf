package main

import (
	"runtime"
	"sync"

	"github.com/sleuth-rca/sleuth"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// appSeed fixes what a workload deploys: the application topology
// (Synthetic-N is one named application), the traffic the model is trained
// and calibrated on, and the training seed. Every run therefore serves the
// same model; the traffic it is measured on — incidents, queries, request
// mixes — follows the run's --seed.
const appSeed = 1

// trainConfig is the benchmark's training set-up: the shipped defaults
// with two epochs, so that setting up several times per run stays cheap.
func trainConfig() sleuth.TrainConfig {
	cfg := sleuth.DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.Seed = appSeed
	return cfg
}

// normalCorpus simulates the app's fault-free deployment traffic: a
// training corpus and a disjoint calibration corpus for normal-state
// statistics and SLOs.
func normalCorpus(app *synth.App, nTrain, nCalib int) (train, calib []*trace.Trace, err error) {
	res, err := sim.New(app, sim.DefaultOptions(appSeed)).Run(0, nTrain+nCalib)
	if err != nil {
		return nil, nil, err
	}
	traces := sim.Traces(res)
	return traces[:nTrain], traces[nTrain:], nil
}

// sloAnalyzer returns an analyzer carrying only the SLOs calibrated on
// normal traffic: enough for the facade's IsAnomalous rule, which input
// generation uses to pick SLO-violating traces.
func sloAnalyzer(calib []*trace.Trace) *sleuth.Analyzer {
	a := &sleuth.Analyzer{}
	a.SetSLOs(sleuth.SLOs(calib))
	return a
}

// sloFor returns the SLO the facade applies to a trace: its root
// operation's, or the global fallback.
func sloFor(a *sleuth.Analyzer, tr *trace.Trace) float64 {
	if v, ok := a.SLO[tr.Spans[tr.Roots()[0]].OpKey()]; ok {
		return v
	}
	return a.GlobalSLO
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines and returns the first
// error. Generation uses it; results are written by index, so they do not
// depend on scheduling.
func parallel(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				errs[i] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
