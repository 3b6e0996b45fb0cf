// Command modelserver runs the centralized model server of §4: an HTTP
// registry maintaining the life cycle of trained Sleuth models — publish,
// fetch (latest or pinned version), lineage, retire.
//
// Usage:
//
//	modelserver -addr :8500 -dir ./models
//
// API:
//
//	GET  /models                          list all versions (JSON)
//	POST /models/{name}?trainedOn=...&parent={name}@{ver}   publish gob blob
//	GET  /models/{name}/latest            newest non-retired blob
//	GET  /models/{name}/{version}         pinned blob
//	GET  /models/{name}/{version}/lineage ancestry (JSON)
//	POST /models/{name}/{version}/retire  retire a version
//	POST /models/{name}/{version}/score   inference over JSON spans (503 + Retry-After past 64 in flight)
//	POST /cluster/add                     stream spans into incremental clustering
//	GET  /cluster/stats                   incremental clustering snapshot (JSON)
//	POST /cluster/rebuild                 force a full recluster
//	GET  /healthz                         liveness + build info (JSON)
//	GET  /readyz                          readiness: cache warm + watchdog (JSON)
//	GET  /metrics                         Prometheus text exposition (incl. ALERTS)
//	GET  /debug/alerts                    watchdog alert states (JSON)
//	GET  /debug/metrics                   metrics snapshot (JSON)
//	GET  /debug/series                    time-series ring buffers (JSON)
//	GET  /debug/traces                    tail-sampled self-trace ring (JSON)
//	GET  /debug/pprof/...                 runtime profiles
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/sleuth-rca/sleuth/internal/modelserver"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/obs/alert"
)

func main() {
	var (
		addr      = flag.String("addr", ":8500", "listen address")
		dir       = flag.String("dir", "models", "registry directory")
		enableObs = flag.Bool("obs", true, "enable the metrics registry and /debug endpoints")
		accessLog = flag.Bool("access-log", true, "log one structured line per request")
		sample    = flag.Duration("sample", obs.EnvSampleInterval(10*time.Second),
			"metric sampling interval for /debug/series (0 disables; SLEUTH_OBS_SAMPLE overrides the default)")
		selfpost = flag.String("selfpost", os.Getenv("SLEUTH_OBS_SELFPOST"),
			"mirror sampled self-traces to this collector URL for the dogfood loop (SLEUTH_OBS_SELFPOST overrides the default)")
		predictWorkers = flag.Int("predict-workers", 0,
			"inference workers per /score request (0 = SLEUTH_PREDICT_WORKERS or GOMAXPROCS)")
		clusterStream = flag.Bool("cluster", false,
			"enable the streaming clustering endpoints (/cluster/add, /cluster/stats, /cluster/rebuild)")
		watchdog = flag.Bool("watchdog", true,
			"run the self-watchdog alert engine over the metrics registry (needs -obs)")
		alertRules = flag.String("alert-rules", os.Getenv("SLEUTH_OBS_ALERTS"),
			"JSON watchdog rule file loaded on top of the default pack (SLEUTH_OBS_ALERTS overrides the default)")
		alertTick = flag.Duration("alert-tick", alert.EnvTickInterval(15*time.Second),
			"watchdog evaluation interval (SLEUTH_OBS_ALERT_TICK overrides the default)")
	)
	flag.Parse()
	if *enableObs {
		obs.Enable()
		if *sample > 0 {
			obs.StartSampler(*sample)
		}
		if *selfpost != "" {
			obs.EnableSelfPost(*selfpost)
		}
	}
	reg, err := modelserver.Open(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "modelserver: %v\n", err)
		os.Exit(1)
	}
	server := &modelserver.Server{
		Registry: reg,
		Serve:    modelserver.ServeConfig{Workers: *predictWorkers},
	}
	if *clusterStream {
		server.Cluster = modelserver.NewStreamCluster()
	}
	if *accessLog {
		server.AccessLog = obs.NewAccessLogger()
	}

	// Preload served model versions so /readyz flips ready only once the
	// first score request would hit the in-memory cache.
	warmed := reg.WarmCache()

	// Self-watchdog: default serving pack (p99 burn rate, error-rate burn,
	// admission shedding, score drift) plus any operator rule file. A score
	// drift alert triggers a full recluster when streaming clustering is
	// on — the drift hook the incremental engine consumes.
	var engine *alert.Engine
	if *watchdog {
		engine = alert.New(obs.Global(), *alertTick)
		if err := engine.Add(alert.ModelServerRules()...); err != nil {
			fmt.Fprintf(os.Stderr, "modelserver: %v\n", err)
			os.Exit(1)
		}
		if *alertRules != "" {
			rules, err := alert.LoadRulesFile(*alertRules)
			if err == nil {
				err = engine.Add(rules...)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "modelserver: %v\n", err)
				os.Exit(1)
			}
		}
		if cl := server.Cluster; cl != nil {
			// The engine delivers drift events on its tick goroutine, so a
			// full recluster must not run inline: it would stall every other
			// rule and eventually trip the watchdog's own readiness check.
			var rebuilding atomic.Bool
			engine.OnDrift(func(ev alert.DriftEvent) {
				if !rebuilding.CompareAndSwap(false, true) {
					return // a rebuild is already in flight
				}
				fmt.Fprintf(os.Stderr, "modelserver: drift alert %s (psi=%.3f ks=%.3f) — reclustering\n",
					ev.Rule, ev.PSI, ev.KS)
				go func() {
					defer rebuilding.Store(false)
					cl.Rebuild()
				}()
			})
		}
		engine.Register()
		engine.Start()
	}
	server.Ready = append(server.Ready, engine.ReadyCheck())
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("model server listening on %s (registry %s, %d models, %d warmed, watchdog rules=%d)\n",
		*addr, *dir, len(reg.List()), warmed, engine.RuleCount())
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "modelserver: %v\n", err)
		os.Exit(1)
	}
}
