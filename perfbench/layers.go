package main

import "strings"

// Layer attribution: every CPU sample is charged to one layer, named after
// the repository's modules. Walking the stack from the leaf, the first
// frame that belongs to a layer decides; runtime helpers and generic
// standard-library frames (memmove, map access, sort, sync, ...) are
// transparent and charge their caller, except the garbage collector and
// the allocator, which are the gc layer wherever they are called from.
// File rules come first because some packages hold two layers: the
// calendars in internal/sim, the cluster glue and the HTTP surface in
// internal/serve, and the HTTP middleware in internal/obs/svclog.

// fileRules map a source file (path suffix) to a layer.
var fileRules = []struct{ suffix, layer string }{
	{"internal/sim/resource.go", "sim.resource"},
	{"internal/serve/cluster.go", "cluster"},
	{"internal/serve/http.go", "http"},
	{"internal/serve/client.go", "http"},
	{"internal/obs/svclog/httpmw.go", "http"},
}

// prefixRules map a function-name prefix to a layer.
var prefixRules = []struct{ prefix, layer string }{
	{"pimdsm/internal/sim.", "sim.sched"},
	{"pimdsm/internal/mesh.", "mesh"},
	{"pimdsm/internal/cache.", "cache"},
	{"pimdsm/internal/proto.", "cache"},
	{"pimdsm/internal/hashmap.", "hashmap"},
	{"pimdsm/internal/core.", "core"},
	{"pimdsm/internal/numa.", "numa"},
	{"pimdsm/internal/coma.", "coma"},
	{"pimdsm/internal/machine.", "machine"},
	{"pimdsm/internal/cpu.", "cpu"},
	{"pimdsm/internal/workload.", "workload"},
	{"pimdsm/internal/stats.", "stats"},
	{"pimdsm/internal/obs", "obs"},
	{"pimdsm/internal/serve.", "serve"},
	{"pimdsm/internal/cluster", "cluster"},
	{"pimdsm.", "serve"}, // the root package: Sweep pool and thin wrappers
	{"log/slog.", "obs"},
	{"net/http.", "http"},
	{"net/textproto.", "http"},
	{"net/url.", "http"},
	{"net.", "http"},
	{"internal/poll.", "http"},
	{"encoding/json.", "http"},
	{"mime", "http"},
	{"vendor/golang.org/x/net/", "http"},
	{"main.", "loadgen"},
	{"runtime/pprof.", "loadgen"},
}

// gcPrefixes are the collector's and allocator's runtime functions.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.makemap",
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.gcStart",
	"runtime.gcMark", "runtime.gcFlushBgCredit", "runtime.gcController", "runtime.(*gcControllerState)",
	"runtime.(*gcWork)", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.scanframeworker", "runtime.markroot", "runtime.greyobject", "runtime.findObject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*mspan)",
	"runtime.bgscavenge", "runtime.(*scavengerState)", "runtime.(*pageAlloc)",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.heapSetType",
	"runtime.wbBuf", "runtime.gcWriteBarrier", "runtime.bulkBarrier", "runtime.typePointers",
	"runtime.(*unwinder)", "runtime.gentraceback",
}

// layerNames is every layer, in report order.
var layerNames = []string{
	"sim.resource", "sim.sched", "mesh", "cache", "hashmap", "core", "numa", "coma",
	"machine", "cpu", "workload", "stats", "gc", "runtime",
	"http", "serve", "obs", "cluster", "loadgen", "other",
}

// classify returns the layer a frame belongs to, or "" for a transparent
// frame.
func classify(f profFunc) string {
	for _, r := range fileRules {
		if strings.HasSuffix(f.file, r.suffix) {
			return r.layer
		}
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(f.name, p) {
			return "gc"
		}
	}
	for _, r := range prefixRules {
		if strings.HasPrefix(f.name, r.prefix) {
			return r.layer
		}
	}
	return ""
}

func isRuntime(name string) bool {
	return strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "internal/runtime/")
}

// layerOf charges one stack (leaf first) to a layer and names the frame
// that decided it.
func layerOf(stack []profFunc) (layer, frame string) {
	runtimeSeen := false
	for _, f := range stack {
		if l := classify(f); l != "" {
			return l, f.name
		}
		runtimeSeen = runtimeSeen || isRuntime(f.name)
	}
	leaf := ""
	if len(stack) > 0 {
		leaf = stack[0].name
	}
	if runtimeSeen {
		return "runtime", leaf
	}
	return "other", leaf
}

// layerTimes is a CPU profile folded into per-layer self time.
type layerTimes struct {
	nanos map[string]int64
	total int64
	// frames is self time by deciding frame, for attribution tests.
	frames map[string]frameTime
}

type frameTime struct {
	layer string
	nanos int64
}

func foldLayers(ss []profSample) *layerTimes {
	lt := &layerTimes{nanos: map[string]int64{}, frames: map[string]frameTime{}}
	for _, s := range ss {
		layer, frame := layerOf(s.stack)
		lt.nanos[layer] += s.nanos
		lt.total += s.nanos
		ft := lt.frames[frame]
		ft.layer = layer
		ft.nanos += s.nanos
		lt.frames[frame] = ft
	}
	return lt
}

func (lt *layerTimes) share(layer string) float64 {
	if lt == nil || lt.total == 0 {
		return 0
	}
	return float64(lt.nanos[layer]) / float64(lt.total)
}

func (lt *layerTimes) selfNanos(layer string) float64 {
	if lt == nil {
		return 0
	}
	return float64(lt.nanos[layer])
}

// perLayerCatalog is every per-layer metric a traced run reports, with its
// unit. A metric a workload does not exercise reads 0 (its layer did no
// such work, or the sample was too small to support the percentile).
func perLayerCatalog() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, l := range layerNames {
		add("ratio", l+".cpu_share")
	}
	add("ns", "sim.resource.ns_per_hop")
	add("count", "mesh.messages", "mesh.hops")
	add("s", "machine.run_s.numa", "machine.run_s.coma", "machine.run_s.agg")
	add("Mcycles/s", "machine.sim_mcycles_per_s.numa", "machine.sim_mcycles_per_s.coma", "machine.sim_mcycles_per_s.agg")
	add("count", "gc.mallocs")
	add("ms", "http.submit_ms_p50", "http.submit_ms_p99", "http.result_ms_p50")
	add("ms", "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p99", "serve.run_ms_p50_hit", "serve.run_ms_p50_miss")
	add("ms", "serve.hit_p50_ms", "serve.hit_p99_ms", "serve.miss_p50_ms", "serve.miss_p90_ms")
	add("count", "serve.hits", "serve.misses")
	add("ratio", "serve.slo_miss_frac", "serve.cache_hit_ratio")
	add("count", "serve.joins", "serve.simulated_runs", "serve.rejected")
	add("count", "cluster.redirects", "cluster.forwards_sent", "cluster.replicas_sent",
		"cluster.lookups_missed", "cluster.recoveries")
	add("ratio", "cluster.recovery_ratio")
	add("count", "cluster.steals_completed")
	add("ratio", "cluster.steal_ratio")
	add("ms", "cluster.fwd_hit_ms_p50", "cluster.local_hit_ms_p50")
	add("s", "cluster.burst_makespan_s")
	add("ms", "loadgen.lag_ms_p99")
	add("count", "loadgen.outstanding_max")
	add("s", "trace.cpu_s")
	return out
}

// setLayerShares sets the metrics every traced workload reports: CPU
// shares, mallocs and the traced run's CPU time (per unit of work, over n
// units).
func setLayerShares(rep *report, layers *layerTimes, m *meter, n float64) {
	for _, l := range layerNames {
		rep.set(l+".cpu_share", "ratio", layers.share(l))
	}
	rep.set("gc.mallocs", "count", float64(m.mallocs)/n)
	rep.set("trace.cpu_s", "s", m.cpuUsed/n)
}

// fillCatalog zero-fills the per-layer metrics a workload did not set, so
// every traced run reports the whole catalog.
func fillCatalog(rep *report) {
	for _, c := range perLayerCatalog() {
		if _, ok := rep.Metrics[c.name]; !ok {
			rep.set(c.name, c.unit, 0)
		}
	}
}
