package pimdsm

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestSpanSumInvariant is the tentpole acceptance check: across a full
// Figure 6 batch, every retired transaction's per-phase buckets sum exactly
// to its end-to-end latency, and no span is ever discarded for an
// attribution failure (Spans.End counts any mismatch as bad).
func TestSpanSumInvariant(t *testing.T) {
	opt := Options{Scale: 0.05, Threads: 16, Apps: []string{"ocean"}}.withDefaults()
	cs := figure6Configs("ocean", opt)
	cfgs := make([]Config, len(cs))
	recs := make([]*Spans, len(cs))
	for i := range cs {
		cfgs[i] = cs[i].cfg
		recs[i] = NewSpans(1 << 16)
		cfgs[i].Spans = recs[i]
	}
	if _, err := RunMany(cfgs); err != nil {
		t.Fatal(err)
	}
	for i, s := range recs {
		if s.Retired() == 0 {
			t.Errorf("%s: no spans retired", cs[i].label)
		}
		if s.Bad() != 0 {
			t.Errorf("%s: %d bad spans: %v", cs[i].label, s.Bad(), s.BadSamples())
		}
		for _, sp := range s.Kept() {
			if sp.PhaseSum() != sp.Latency() {
				t.Fatalf("%s: span %d phases sum %d != latency %d",
					cs[i].label, sp.ID, sp.PhaseSum(), sp.Latency())
			}
		}
	}
}

// TestSpansDoNotChangeResults is the determinism regression for the span and
// audit paths: both are record-only, so a run with them on must be
// bit-identical to the same run with them off.
func TestSpansDoNotChangeResults(t *testing.T) {
	for _, arch := range allArches {
		t.Run(string(arch), func(t *testing.T) {
			plain, err := Run(fig6Config(arch))
			if err != nil {
				t.Fatal(err)
			}
			cfg := fig6Config(arch)
			cfg.Spans = NewSpans(0)
			cfg.Audit = true
			observed, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Breakdown != observed.Breakdown {
				t.Fatalf("breakdown differs with spans on: %+v vs %+v", plain.Breakdown, observed.Breakdown)
			}
			if !reflect.DeepEqual(plain.Machine, observed.Machine) {
				t.Fatal("stats.Machine differs with spans on")
			}
			if !reflect.DeepEqual(plain.Mesh, observed.Mesh) {
				t.Fatal("mesh stats differ with spans on")
			}
			if observed.AuditViolations != 0 {
				t.Fatalf("audit reported %d violations: %v", observed.AuditViolations, observed.AuditSamples)
			}

			// And spans themselves are deterministic: run again, same aggregates.
			cfg2 := fig6Config(arch)
			cfg2.Spans = NewSpans(0)
			if _, err := Run(cfg2); err != nil {
				t.Fatal(err)
			}
			if cfg.Spans.Retired() != cfg2.Spans.Retired() {
				t.Fatalf("span counts differ between identical runs: %d vs %d",
					cfg.Spans.Retired(), cfg2.Spans.Retired())
			}
			if !reflect.DeepEqual(cfg.Spans.Kept(), cfg2.Spans.Kept()) {
				t.Fatal("kept spans differ between identical runs")
			}
		})
	}
}

// TestAuditCleanAllMachines runs the coherence auditor on every workload on
// all three machine types: zero protocol-invariant violations anywhere.
func TestAuditCleanAllMachines(t *testing.T) {
	var cfgs []Config
	var labels []string
	for _, arch := range []Arch{AGG, NUMA, COMA} {
		for _, app := range Apps() {
			cfgs = append(cfgs, Config{
				Arch: arch, App: AppSpec{Name: app, Scale: 0.03},
				Threads: 8, Pressure: 0.75, DRatio: 1,
				Audit: true,
			})
			labels = append(labels, string(arch)+"/"+app)
		}
	}
	results, err := RunMany(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.AuditViolations != 0 {
			t.Errorf("%s: %d coherence violations: %v", labels[i], res.AuditViolations, res.AuditSamples)
		}
	}
}

// TestSweepOnResult checks the streaming result hook fires exactly once per
// run with the run's actual result, in both pool shapes.
func TestSweepOnResult(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfgs := make([]Config, 6)
		for i := range cfgs {
			cfgs[i] = Config{
				Arch: AGG, App: AppSpec{Name: "fft", Scale: 0.02},
				Threads: 4, Pressure: 0.75, DRatio: 1,
			}
		}
		got := make(map[int]*Result)
		s := Sweep{Workers: workers, OnResult: func(i int, r *Result) {
			if _, dup := got[i]; dup {
				t.Fatalf("workers=%d: OnResult fired twice for %d", workers, i)
			}
			got[i] = r
		}}
		results, err := s.RunMany(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cfgs) {
			t.Fatalf("workers=%d: OnResult fired %d times over %d runs", workers, len(got), len(cfgs))
		}
		for i, r := range results {
			if got[i] != r {
				t.Fatalf("workers=%d: OnResult saw a different *Result for %d", workers, i)
			}
		}
	}
}

// TestDecompose runs the aggregated report on one small application and
// checks the rows are internally consistent: phases average to the average
// latency, nothing bad, and the formatter renders every row.
func TestDecompose(t *testing.T) {
	rows, err := Decompose(Options{Scale: 0.03, Threads: 8, Apps: []string{"fft"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows, want the 7 Figure 6 configurations", len(rows))
	}
	for _, row := range rows {
		if row.Bad != 0 {
			t.Errorf("%s/%s: %d bad spans", row.App, row.Label, row.Bad)
		}
		if row.Retired == 0 || row.AvgLat <= 0 {
			t.Errorf("%s/%s: empty row %+v", row.App, row.Label, row)
			continue
		}
		var sum float64
		for _, v := range row.Phase {
			sum += v
		}
		if math.Abs(sum-row.AvgLat) > 1e-6*row.AvgLat {
			t.Errorf("%s/%s: phase averages sum %.6f != avg latency %.6f", row.App, row.Label, sum, row.AvgLat)
		}
	}
	text := FormatDecompose(rows)
	for _, want := range []string{"dir-occ", "net-reply", "NUMA", "1/1AGG75", "fft"} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatDecompose output missing %q:\n%s", want, text)
		}
	}
}
