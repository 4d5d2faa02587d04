// Command aggsimd is the simulation service daemon: a long-running process
// that accepts simulation jobs over a JSON/HTTP API, deduplicates them
// through a content-addressed result cache, schedules them on a bounded
// worker pool behind an admission window, and serves results, metrics and
// span artifacts — so repeated evaluations of the paper's configuration
// matrix stop paying for re-simulation.
//
// Usage:
//
//	aggsimd [-addr localhost:8977] [-workers 2] [-sweep-workers 0]
//	        [-queue 16] [-cache-entries 512] [-cache-file aggsimd.cache]
//	        [-telemetry-sample 0] [-artifact-dir DIR] [-artifact-bytes 64MiB]
//	        [-drain-timeout 30s] [-log stderr|off|PATH] [-log-level info]
//	        [-tenants-file tenants.json] [-usage-file aggsimd.usage]
//	        [-cluster-name NAME -peers host:port,...]
//	        [-advertise host:port] [-replicas 2]
//
// -workers bounds concurrently running jobs; -sweep-workers bounds the
// simulations one job runs in parallel (0 = GOMAXPROCS divided across the
// job workers). Every simulation is a CPU-bound serial coherence run, so
// the daemon keeps workers × sweep-workers ≤ GOMAXPROCS: explicit values
// that oversubscribe are capped with a startup warning.
// -queue is the admission window: submissions beyond it receive HTTP 429
// with a Retry-After hint instead of queueing without bound. -cache-file
// persists the result-cache index across restarts (written atomically on
// graceful shutdown, verified and reloaded on start).
//
// The flight recorder: jobs submitted with "telemetry": true — or every Nth
// job when -telemetry-sample N is set — record deep telemetry (metrics,
// spans, per-config cycle-attribution profiles) and persist the merged
// record as content-addressed profile/folded/decompose artifacts, served
// under GET /api/v1/jobs/{id}/profile|folded|decompose and diffed by
// `pimdsm diff`. With -artifact-dir the records live in a bounded on-disk
// store (-artifact-bytes, LRU eviction) whose index survives restarts like
// the result cache's. Recording is record-only: results stay byte-identical
// with it on or off.
//
// Multi-tenant mode (-tenants-file, DESIGN.md §14): the file declares the
// tenant set — name, API key, priority ceiling, token-bucket rate limit and
// queue/concurrency quotas (see examples/tenants.json). Every /api/v1
// request must then carry a registered key (Authorization: Bearer or
// X-API-Key; 401/403 otherwise), each tenant's submissions are gated by its
// own bucket and quotas in front of the shared admission window (per-tenant
// 429 with its own Retry-After), and all observability surfaces attribute
// work to tenants: tenant= in logs and lifecycle events, a bounded `tenant`
// label dimension on /metrics.prom (summing exactly to the global
// counters), GET /api/v1/tenants and /api/v1/tenants/{name}/usage, and
// `pimdsm usage`. -usage-file persists the cumulative per-tenant ledger
// across restarts, atomically on graceful shutdown like the cache index.
// Tenancy is record-only for the simulator: results stay byte-identical
// with it on or off.
//
// The tenants file hot-reloads without a restart: SIGHUP re-reads it. A
// reload is all-or-nothing — a malformed file is rejected loudly and the old
// registry keeps serving; a revoked key gets 401 on its next request after a
// successful swap.
//
// Cluster mode (-cluster-name NAME -peers a:1,b:2, DESIGN.md §15): N
// daemons form a named cluster — gossip membership over the seed list,
// consistent-hash ownership of the content-addressed key space, forwarding
// of non-owned keys to their owner, replication of completed results to
// -replicas ring successors, and work stealing by idle nodes. Any node is a
// full front door: submit anywhere, the cluster routes. -advertise overrides
// the address peers use to reach this node (default: the bound -addr).
// Without -cluster-name the daemon is byte-identical to a single-node build;
// membership changes never change result bytes, only where they compute.
//
// The daemon serves the obs dashboard routes (/, /debug/vars,
// /debug/pprof/) next to the API; /healthz reports liveness and /readyz
// readiness (503 while draining or with a saturated admission window).
// Every request is logged as one structured JSON line (-log selects the
// destination, -log-level the floor), tagged with an X-Request-ID that is
// also echoed to clients. Job lifecycle events stream over
// GET /api/v1/events (SSE; resume with Last-Event-ID) and per-job under
// /api/v1/jobs/{id}/events (add ?format=chrome for a chrome://tracing
// export); GET /metrics.prom exposes Prometheus text metrics. SIGINT or
// SIGTERM starts a graceful drain: running jobs finish (up to
// -drain-timeout), queued jobs abort, the cache index is persisted, then
// the process exits.
//
// Submit with the pimdsm tool:
//
//	pimdsm submit -addr localhost:8977 -figure6 -app fft -scale 0.1 -wait
//	pimdsm jobs   -addr localhost:8977
//	pimdsm result -addr localhost:8977 j-000001
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pimdsm"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(realMain(os.Args[1:], os.Stderr, stop))
}

// notifyListening is a test seam: the smoke test reads the bound address
// from here instead of scraping stderr.
var notifyListening = func(addr string) {}

// effectiveSweepWorkers resolves the per-job simulation parallelism so the
// pool never oversubscribes the host: each of `workers` jobs runs up to the
// returned count of simulations at once, and every simulation is one
// CPU-bound goroutine (machine runs are serial), so the product is kept
// ≤ maxProcs. sweepWorkers 0 asks for the automatic split; an explicit
// value that oversubscribes is capped and the returned warning explains
// what happened (empty when nothing was changed).
//
// The previous behavior — 0 meant one sweep worker per CPU in *each* job
// worker — ran workers × NumCPU simulations on NumCPU cores, a 2× default
// oversubscription that showed up as pure scheduler churn on loaded hosts.
func effectiveSweepWorkers(workers, sweepWorkers, maxProcs int) (int, string) {
	if workers < 1 {
		workers = 1
	}
	fair := maxProcs / workers
	if fair < 1 {
		fair = 1
	}
	if sweepWorkers <= 0 {
		return fair, ""
	}
	if workers*sweepWorkers > maxProcs && sweepWorkers > fair {
		return fair, fmt.Sprintf(
			"%d jobs x %d simulations oversubscribes GOMAXPROCS=%d; capping -sweep-workers to %d",
			workers, sweepWorkers, maxProcs, fair)
	}
	return sweepWorkers, ""
}

// realMain runs the daemon until a signal arrives on stop (tests send one
// instead of raising a real signal).
func realMain(args []string, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("aggsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8977", "listen address (host:port, :0 for an ephemeral port)")
	workers := fs.Int("workers", 2, "jobs simulated concurrently")
	sweepWorkers := fs.Int("sweep-workers", 0, "parallel simulations within one job (0 = GOMAXPROCS split across -workers)")
	queue := fs.Int("queue", 16, "admission window: max jobs waiting to run")
	cacheEntries := fs.Int("cache-entries", 512, "result cache LRU bound")
	cacheFile := fs.String("cache-file", "", "persist the cache index to this file across restarts")
	telemetrySample := fs.Int("telemetry-sample", 0, "head-sample every Nth job into the flight recorder (0 = off)")
	artifactDir := fs.String("artifact-dir", "", "persist flight-recorder artifacts in this directory (bounded, survives restarts)")
	artifactBytes := fs.Int64("artifact-bytes", 64<<20, "artifact store byte bound (LRU eviction past it)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for running jobs on shutdown")
	logDest := fs.String("log", "stderr", "structured JSON log destination: stderr, off, or a file path")
	logLevel := fs.String("log-level", "info", "log floor: debug, info, warn, error")
	tenantsFile := fs.String("tenants-file", "", "enable multi-tenant mode: JSON file declaring tenants, keys and quotas")
	usageFile := fs.String("usage-file", "", "persist the per-tenant usage ledger to this file across restarts")
	clusterName := fs.String("cluster-name", "", "join the named cluster (requires -peers)")
	peers := fs.String("peers", "", "comma-separated seed peer addresses (host:port) for cluster bootstrap")
	advertise := fs.String("advertise", "", "address peers reach this node at (default: the bound -addr)")
	replicas := fs.Int("replicas", 2, "ring successors receiving a copy of each completed result")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Flag hygiene: a typo'd -log-level silently falling back to info would
	// hide the debug lines the operator asked for. Reject it up front.
	if err := pimdsm.ValidateLogLevel(*logLevel); err != nil {
		fmt.Fprintln(stderr, "aggsimd: -log-level:", err)
		return 2
	}
	if (*clusterName == "") != (*peers == "") {
		fmt.Fprintln(stderr, "aggsimd: -cluster-name and -peers must be set together")
		return 2
	}
	if *clusterName == "" && *advertise != "" {
		fmt.Fprintln(stderr, "aggsimd: -advertise requires -cluster-name and -peers")
		return 2
	}

	var tenants *pimdsm.TenantRegistry
	if *tenantsFile != "" {
		var err error
		tenants, err = pimdsm.LoadTenants(*tenantsFile)
		if err != nil {
			// A missing or malformed tenants file must never mean "run open":
			// fail loudly instead of silently disabling authentication.
			fmt.Fprintln(stderr, "aggsimd: -tenants-file:", err)
			return 1
		}
	} else if *usageFile != "" {
		fmt.Fprintln(stderr, "aggsimd: -usage-file requires -tenants-file")
		return 2
	}

	var svcLog *slog.Logger
	switch *logDest {
	case "off":
		// Options default to a no-op logger.
	case "stderr", "":
		svcLog = pimdsm.NewServiceLogger(stderr, *logLevel, false)
	default:
		f, err := os.OpenFile(*logDest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "aggsimd: -log:", err)
			return 1
		}
		defer f.Close()
		svcLog = pimdsm.NewServiceLogger(f, *logLevel, false)
	}

	sw, warn := effectiveSweepWorkers(*workers, *sweepWorkers, runtime.GOMAXPROCS(0))
	if warn != "" {
		fmt.Fprintln(stderr, "aggsimd:", warn)
	}

	srv, err := pimdsm.NewServer(pimdsm.ServerOptions{
		Workers:         *workers,
		QueueLimit:      *queue,
		CacheEntries:    *cacheEntries,
		CachePath:       *cacheFile,
		TelemetrySample: *telemetrySample,
		ArtifactDir:     *artifactDir,
		ArtifactBytes:   *artifactBytes,
		Log:             svcLog,
		Events:          pimdsm.NewEventLog(0),
		Tenants:         tenants,
		UsagePath:       *usageFile,
	}, sw)
	if err != nil {
		fmt.Fprintln(stderr, "aggsimd:", err)
		return 1
	}
	if *cacheFile != "" {
		fmt.Fprintf(stderr, "aggsimd: cache index %s: %d entries restored\n",
			*cacheFile, srv.Cache().Len())
	}
	if store := srv.ArtifactStore(); store != nil {
		fmt.Fprintf(stderr, "aggsimd: artifact store %s: %d artifacts restored\n",
			store.Dir(), store.Stats().Count)
	}
	if tenants != nil {
		fmt.Fprintf(stderr, "aggsimd: multi-tenant mode: %d tenants from %s\n",
			tenants.Len(), *tenantsFile)
	}

	dash := pimdsm.NewDashboard()
	api := pimdsm.NewServiceAPI(srv, dash)
	bound, closeHTTP, err := api.ListenAndServe(*addr)
	if err != nil {
		fmt.Fprintln(stderr, "aggsimd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "aggsimd: listening on http://%s/ (API under /api/v1/)\n", bound)

	// Cluster mode: the membership node advertises the bound address unless
	// the operator gave a reachable override (NAT, DNS). Attached after the
	// listener is up so the first heartbeat a seed sends back finds a live
	// endpoint.
	if *clusterName != "" {
		self := *advertise
		if self == "" {
			self = bound
		}
		var seeds []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				seeds = append(seeds, p)
			}
		}
		node, err := pimdsm.NewClusterNode(pimdsm.ClusterConfig{
			Name:     *clusterName,
			Self:     self,
			Seeds:    seeds,
			Replicas: *replicas,
			Log:      svcLog,
		})
		if err != nil {
			fmt.Fprintln(stderr, "aggsimd: cluster:", err)
			closeHTTP()
			return 1
		}
		srv.AttachCluster(node)
		fmt.Fprintf(stderr, "aggsimd: cluster %q: advertising %s, %d seeds, %d replicas\n",
			*clusterName, self, len(node.Members())-1, *replicas)
	}
	notifyListening(bound)

	// Mirror the service counters into the dashboard index page.
	statsDone := make(chan struct{})
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			st := srv.Stats()
			dash.Publish("service", fmt.Sprintf(
				"jobs: %d submitted, %d done, %d failed, %d rejected; queue %d/%d, running %d\n"+
					"cache: %d/%d entries, %d hits, %d misses, %d joins, %d evictions\n"+
					"simulated: %d runs, %d engine cycles\n",
				st.JobsSubmitted, st.JobsDone, st.JobsFailed, st.JobsRejected,
				st.Queued, st.QueueLimit, st.Running,
				st.Cache.Entries, st.Cache.Limit, st.Cache.Hits, st.Cache.Misses,
				st.Cache.Joins, st.Cache.Evictions,
				st.SimulatedRuns, st.SimulatedCycles))
			dash.Publish("artifacts", srv.ArtifactsStatus())
			if len(st.Tenants) > 0 {
				var b strings.Builder
				for _, t := range st.Tenants {
					fmt.Fprintf(&b, "%-12s %d queued, %d running; %d submitted, %d done, %d failed, %d rejected; %d cache hits, %d runs\n",
						t.Name, t.Queued, t.Running,
						t.Usage.JobsSubmitted, t.Usage.JobsDone, t.Usage.JobsFailed, t.Usage.Rejected(),
						t.Usage.CacheHits, t.Usage.SimulatedRuns)
				}
				dash.Publish("tenants", b.String())
			}
			select {
			case <-statsDone:
				return
			case <-tick.C:
			}
		}
	}()

	// Tenants hot-reload on SIGHUP. Reload is all-or-nothing — a malformed
	// file is rejected loudly and the running registry keeps serving the old
	// tenant set; a revoked key stops authenticating on the request after a
	// successful swap.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	var sig os.Signal
wait:
	for {
		select {
		case <-hup:
			if tenants == nil {
				continue
			}
			if err := tenants.ReloadFile(*tenantsFile); err != nil {
				fmt.Fprintf(stderr, "aggsimd: tenants reload rejected, keeping previous registry: %v\n", err)
				srv.Log().Error("tenants_reload_rejected", "err", err.Error())
				continue
			}
			fmt.Fprintf(stderr, "aggsimd: tenants reloaded: %d tenants, generation %d\n",
				tenants.Len(), tenants.Generation())
			srv.Log().Info("tenants_reloaded", "tenants", tenants.Len(), "generation", tenants.Generation())
		case sig = <-stop:
			break wait
		}
	}
	fmt.Fprintf(stderr, "aggsimd: %v, draining (timeout %s)\n", sig, *drainTimeout)
	close(statsDone)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = srv.Shutdown(ctx)
	closeHTTP()
	if err != nil {
		fmt.Fprintln(stderr, "aggsimd: shutdown:", err)
		return 1
	}
	if *cacheFile != "" {
		fmt.Fprintf(stderr, "aggsimd: cache index persisted to %s\n", *cacheFile)
	}
	fmt.Fprintln(stderr, "aggsimd: bye")
	return 0
}
