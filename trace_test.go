package pimdsm

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"pimdsm/internal/obs"
)

// allArches are the three machines; the record-only determinism tests run
// on each, since all three share one instrumented Access wrapper.
var allArches = []Arch{AGG, NUMA, COMA}

// fig6Config is Figure 6's 75%-pressure configuration of arch at test scale
// (1/1AGG75 for AGG).
func fig6Config(arch Arch) Config {
	return Config{
		Arch: arch, App: AppSpec{Name: "ocean", Scale: 0.05},
		Threads: 16, Pressure: 0.75, DRatio: 1,
	}
}

// TestTracingDoesNotChangeResults is the determinism regression: a run with
// tracing and metrics enabled must produce a bit-identical stats.Machine and
// breakdown to the same run with them off.
func TestTracingDoesNotChangeResults(t *testing.T) {
	for _, arch := range allArches {
		t.Run(string(arch), func(t *testing.T) {
			plain, err := Run(fig6Config(arch))
			if err != nil {
				t.Fatal(err)
			}

			cfg := fig6Config(arch)
			cfg.Trace = NewTrace(1 << 18)
			cfg.Metrics = NewMetrics()
			traced, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(plain.Machine, traced.Machine) {
				t.Fatal("stats.Machine differs with tracing on")
			}
			if plain.Breakdown != traced.Breakdown {
				t.Fatalf("breakdown differs: %+v vs %+v", plain.Breakdown, traced.Breakdown)
			}
			if !reflect.DeepEqual(plain.Mesh, traced.Mesh) {
				t.Fatal("mesh stats differ with tracing on")
			}

			// And tracing itself is deterministic: run again, same event stream.
			cfg2 := fig6Config(arch)
			cfg2.Trace = NewTrace(1 << 18)
			if _, err := Run(cfg2); err != nil {
				t.Fatal(err)
			}
			if cfg.Trace.Total() != cfg2.Trace.Total() {
				t.Fatalf("trace totals differ: %d vs %d", cfg.Trace.Total(), cfg2.Trace.Total())
			}
			if !reflect.DeepEqual(cfg.Trace.Events(), cfg2.Trace.Events()) {
				t.Fatal("trace event streams differ between identical runs")
			}
		})
	}
}

// TestTraceCountsStableAcrossWorkers runs the same batch at 1 and 4 sweep
// workers, giving every config its own trace, and requires identical
// per-config event counts — scheduling must not leak into observability.
func TestTraceCountsStableAcrossWorkers(t *testing.T) {
	mkCfgs := func() ([]Config, []*Trace) {
		apps := []string{"fft", "radix"}
		var cfgs []Config
		var traces []*Trace
		for _, app := range apps {
			for _, arch := range []Arch{AGG, NUMA} {
				tr := NewTrace(1 << 16)
				cfgs = append(cfgs, Config{
					Arch: arch, App: AppSpec{Name: app, Scale: 0.03},
					Threads: 8, Pressure: 0.75, DRatio: 1,
					Trace: tr,
				})
				traces = append(traces, tr)
			}
		}
		return cfgs, traces
	}

	counts := func(workers int) []uint64 {
		cfgs, traces := mkCfgs()
		if _, err := (Sweep{Workers: workers}).RunMany(cfgs); err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(traces))
		for i, tr := range traces {
			out[i] = tr.Total()
		}
		return out
	}

	serial, parallel := counts(1), counts(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("per-config trace totals differ across worker counts:\n 1 worker: %v\n 4 workers: %v", serial, parallel)
	}
	for i, n := range serial {
		if n == 0 {
			t.Fatalf("config %d emitted no events", i)
		}
	}
}

// TestRunTraceContents drives the acceptance criterion for `aggsim -trace`:
// the Figure 6 AGG run's trace must contain reads, writes, invalidations,
// write-backs and pageouts, exportable as loadable Chrome JSON in sim-time
// order.
func TestRunTraceContents(t *testing.T) {
	cfg := fig6Config(AGG)
	cfg.Trace = NewTrace(1 << 20)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, k := range []obs.EventKind{
		obs.EvRunStart, obs.EvRead, obs.EvWrite, obs.EvInval,
		obs.EvWriteBack, obs.EvPageout, obs.EvMsg, obs.EvPhase,
	} {
		if cfg.Trace.CountKind(k) == 0 {
			t.Errorf("no %v events in the Figure 6 AGG trace", k)
		}
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, cfg.Trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) != cfg.Trace.Len() {
		t.Fatalf("JSON has %d events, trace holds %d", len(doc.TraceEvents), cfg.Trace.Len())
	}
	for i := 1; i < len(doc.TraceEvents); i++ {
		if doc.TraceEvents[i].Ts < doc.TraceEvents[i-1].Ts {
			t.Fatalf("event %d out of sim-time order", i)
		}
	}
}

// TestMetricsMatchMachineCounters verifies the registry is an accounting of
// the run, not a parallel implementation that can drift.
func TestMetricsMatchMachineCounters(t *testing.T) {
	cfg := fig6Config(AGG)
	cfg.Metrics = NewMetrics()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &res.Machine
	if v := cfg.Metrics.Counter("invalidations").Value(); v != m.Invalidations {
		t.Errorf("invalidations: metrics %d, machine %d", v, m.Invalidations)
	}
	if v := cfg.Metrics.Counter("pageouts").Value(); v != m.Pageouts {
		t.Errorf("pageouts: metrics %d, machine %d", v, m.Pageouts)
	}
	if v := cfg.Metrics.Counter("mesh.messages").Value(); v != res.Mesh.Messages {
		t.Errorf("mesh.messages: metrics %d, mesh %d", v, res.Mesh.Messages)
	}
	if v := cfg.Metrics.Gauge("run.exec_cycles").Value(); v != float64(res.Breakdown.Exec) {
		t.Errorf("run.exec_cycles: metrics %v, breakdown %d", v, res.Breakdown.Exec)
	}
}

// TestSweepProgressSerialized checks the progress callback sees every run
// exactly once with a monotone done count, in both pool shapes.
func TestSweepProgressSerialized(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfgs := make([]Config, 6)
		for i := range cfgs {
			cfgs[i] = Config{
				Arch: AGG, App: AppSpec{Name: "fft", Scale: 0.02},
				Threads: 4, Pressure: 0.75, DRatio: 1,
			}
		}
		var dones []int
		seen := make(map[int]bool)
		s := Sweep{Workers: workers, Progress: func(done, total, i int) {
			if total != len(cfgs) {
				t.Fatalf("total = %d, want %d", total, len(cfgs))
			}
			dones = append(dones, done)
			seen[i] = true
		}}
		if _, err := s.RunMany(cfgs); err != nil {
			t.Fatal(err)
		}
		if len(dones) != len(cfgs) || len(seen) != len(cfgs) {
			t.Fatalf("workers=%d: %d callbacks over %d indices", workers, len(dones), len(seen))
		}
		for i, d := range dones {
			if d != i+1 {
				t.Fatalf("workers=%d: done sequence %v not monotone", workers, dones)
			}
		}
	}
}
