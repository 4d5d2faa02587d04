package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimdsm"
)

// run executes the command in-process and returns its exit code, output
// and parsed result line.
func run(t *testing.T, h hooks, ref *reference, args ...string) (int, string, *report) {
	t.Helper()
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb, h, ref)
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatalf("%v: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return code, out.String(), res
}

func committedReference(t *testing.T) *reference {
	t.Helper()
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// serialRun is a batch runner that can be told to fail or stall, once
// set-up is over.
func serialRun(armed *atomic.Bool, fail func(pimdsm.Config) bool, stall time.Duration) runBatch {
	return func(cfgs []pimdsm.Config, onResult func(int, *pimdsm.Result)) ([]*pimdsm.Result, error) {
		out := make([]*pimdsm.Result, len(cfgs))
		for i, cfg := range cfgs {
			if armed.Load() {
				time.Sleep(stall)
				if fail(cfg) {
					if onResult != nil {
						onResult(i, nil)
					}
					return nil, errors.New("injected runner failure")
				}
			}
			r, err := pimdsm.Run(cfg)
			if err != nil {
				return nil, err
			}
			out[i] = r
			if onResult != nil {
				onResult(i, r)
			}
		}
		return out, nil
	}
}

func TestCleanServiceRunPasses(t *testing.T) {
	if raceEnabled {
		t.Skip("fixed-rate load saturates a race-instrumented service")
	}
	code, out, res := run(t, hooks{}, nil, "--workload", "service", "--seconds", "2", "--seed", "3")
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("clean run: code %d, result %+v\n%s", code, res, out)
	}
	var want []string
	for _, m := range benchmarkJSON(t).EndToEnd {
		want = append(want, m.Name)
	}
	if got := metricNames(res); strings.Join(got, ",") != strings.Join(sorted(want), ",") {
		t.Fatalf("untraced metrics %v, BENCHMARK.json end_to_end %v", got, sorted(want))
	}
}

// Each injected fault must raise the failure count, keep every attempt in
// the denominator and make the command exit non-zero.
func TestFailureAccounting(t *testing.T) {
	corrupt := committedReference(t)
	hitKey := specKey(smallSpecs(hitScale, smallThreads)[0])
	corrupt.digests[hitKey] = strings.Repeat("0", 64)

	failArmed, stallArmed := &atomic.Bool{}, &atomic.Bool{}
	numaFFT := func(cfg pimdsm.Config) bool { return cfg.Arch == pimdsm.NUMA && cfg.App.Name == "fft" }
	never := func(pimdsm.Config) bool { return false }

	cases := []struct {
		name string
		h    hooks
		ref  *reference
	}{
		{"corrupt reference entry", hooks{}, corrupt},
		{"runner fails one key", hooks{
			run:        serialRun(failArmed, numaFFT, 0),
			afterSetup: func() { failArmed.Store(true) },
		}, nil},
		{"429 from a tiny queue", hooks{
			queueLimit: 1,
			run:        serialRun(stallArmed, never, 150*time.Millisecond),
			afterSetup: func() { stallArmed.Store(true) },
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, res := run(t, c.h, c.ref, "--workload", "service", "--seconds", "2", "--seed", "5")
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("fault not counted: code %d, result %+v\n%s", code, res, out)
			}
			m := regexp.MustCompile(`fail_frac\s+([\d.]+)\s+\((\d+) of (\d+)\)`).FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no fail_frac line:\n%s", out)
			}
			if frac, _ := strconv.ParseFloat(m[1], 64); frac <= 0 {
				t.Fatalf("fail_frac %s", m[1])
			}
			slo := regexp.MustCompile(`slo_miss_frac\s+[\d.]+\s+\((\d+) of (\d+) over`).FindStringSubmatch(out)
			over, _ := strconv.Atoi(slo[1])
			total, _ := strconv.Atoi(slo[2])
			// Failed requests count as over the limit and stay in the
			// denominator: every planned request is attempted.
			if over < res.Failed || total != res.Attempted {
				t.Fatalf("slo %d of %d, failed %d of %d attempted\n%s", over, total, res.Failed, res.Attempted, out)
			}
			if c.h.queueLimit > 0 && !strings.Contains(out, "429") {
				t.Fatalf("expected a 429 among the failures:\n%s", out)
			}
		})
	}
}

// The oracle's exec cycles equal the committed benchjson snapshot, and it
// covers every configuration the service workloads request.
func TestReferenceMatchesSnapshot(t *testing.T) {
	ref := committedReference(t)
	data, err := os.ReadFile("../BENCH_20260808.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Arch, App  string
			ExecCycles uint64 `json:"exec_cycles"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 21 || len(ref.Matrix) != 21 {
		t.Fatalf("%d snapshot rows, %d reference rows", len(doc.Runs), len(ref.Matrix))
	}
	for _, r := range doc.Runs {
		if got := ref.matrix[r.Arch+"/"+r.App].ExecCycles; got != r.ExecCycles {
			t.Errorf("%s/%s: reference %d exec cycles, snapshot %d", r.Arch, r.App, got, r.ExecCycles)
		}
	}
	for _, cs := range serviceSpecs() {
		if _, ok := ref.digests[specKey(cs)]; !ok {
			t.Errorf("%s: no digest", specLabel(cs))
		}
	}
}

// Every frame holding a visible share of a mixed simulator and service
// profile lands in a named layer, not in "other".
func TestLayerAttribution(t *testing.T) {
	if raceEnabled {
		t.Skip("fixed-rate load saturates a race-instrumented service")
	}
	prof := startProfiler()
	for _, cs := range smallSpecs(hitScale, smallThreads) {
		if _, err := pimdsm.Run(cs.Config()); err != nil {
			t.Fatal(err)
		}
	}
	rep := runService(runOpts{workload: "service", seed: 9, seconds: 2 * time.Second, ref: committedReference(t)})
	layers, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("service run failed: %v", rep.notes)
	}
	const minShare = 0.005
	for name, ft := range layers.frames {
		if ft.layer == "other" && float64(ft.nanos) >= minShare*float64(layers.total) {
			t.Errorf("frame %s (%.1f%%) is in no layer", name, 100*float64(ft.nanos)/float64(layers.total))
		}
	}
	if s := layers.share("other"); s > 0.02 {
		t.Errorf("other holds %.1f%% of the profile", 100*s)
	}
	for _, l := range []string{"sim.resource", "http", "gc"} {
		if layers.share(l) == 0 {
			t.Errorf("layer %s has no samples", l)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	s := make(samples, 1000)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Millisecond
	}
	if !s.supports(99) || s[:999].supports(99) {
		t.Fatal("p99 needs exactly 1000 samples")
	}
	if got := s.ms(99); got != 990 {
		t.Fatalf("p99 of 1..1000 ms = %v", got)
	}
	if got := s[:999].ms(99); got != 0 {
		t.Fatalf("unsupported p99 reported as %v", got)
	}
	if d := s[:50].describe("x", 90); !strings.Contains(d, "refused") {
		t.Fatalf("describe: %s", d)
	}
}

func TestCompareDiffsLayers(t *testing.T) {
	a, b := newReport(), newReport()
	a.set("sim.resource.cpu_share", "ratio", 0.30)
	b.set("sim.resource.cpu_share", "ratio", 0.15)
	b.set("gc.cpu_share", "ratio", 0.10)
	var out bytes.Buffer
	writeDiff(&out, a, b)
	if !strings.Contains(out.String(), "-50.0%") || !regexp.MustCompile(`gc.cpu_share\s+-\s+0.1`).MatchString(out.String()) {
		t.Fatalf("diff:\n%s", out.String())
	}
}

// BENCHMARK.json lists exactly the per-layer catalog.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	doc := benchmarkJSON(t)
	var want []string
	for _, c := range perLayerCatalog() {
		want = append(want, c.name+" "+c.unit)
	}
	var got []string
	for _, m := range doc.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	if strings.Join(sorted(got), ",") != strings.Join(sorted(want), ",") {
		t.Fatalf("BENCHMARK.json per_layer %v\ncatalog %v", got, want)
	}
}

type benchDoc struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func benchmarkJSON(t *testing.T) benchDoc {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func metricNames(r *report) []string {
	var out []string
	for n := range r.Metrics {
		out = append(out, n)
	}
	return sorted(out)
}

func sorted(xs []string) []string {
	c := append([]string(nil), xs...)
	sort.Strings(c)
	return c
}
