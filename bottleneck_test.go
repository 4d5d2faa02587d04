package pimdsm

import (
	"reflect"
	"strings"
	"testing"
)

// TestProfileCycleInvariant is the tentpole acceptance check: across a full
// Figure 6 batch of every application, each profiled run's cycle buckets sum
// exactly — P-node busy/mem-stall/sync-spin/idle to the engine's execution
// time, and D-node handler classes to each covered resource's busy time.
func TestProfileCycleInvariant(t *testing.T) {
	rows, err := Bottleneck(Options{Scale: 0.05, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := 7 * len(Apps()); len(rows) != want {
		t.Fatalf("%d rows, want %d (7 Figure 6 configurations x %d apps)", len(rows), want, len(Apps()))
	}
	for _, row := range rows {
		if row.Profile.Exec() == 0 {
			t.Errorf("%s/%s: no execution time recorded", row.App, row.Label)
			continue
		}
		if bad := row.Profile.CheckInvariants(); len(bad) != 0 {
			t.Errorf("%s/%s: cycle accounting does not balance:\n  %s",
				row.App, row.Label, strings.Join(bad, "\n  "))
		}
	}
	text := FormatBottleneck(rows[:7])
	for _, want := range []string{"P-nodes", "critical path:", "heatmap", rows[0].App} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatBottleneck output missing %q", want)
		}
	}
}

// TestProfileDoesNotChangeResults extends the determinism regression to the
// profiler: it is record-only, so a profiled run must be bit-identical to an
// unprofiled one, and two profiled runs must record identical profiles.
func TestProfileDoesNotChangeResults(t *testing.T) {
	for _, arch := range allArches {
		t.Run(string(arch), func(t *testing.T) {
			plain, err := Run(fig6Config(arch))
			if err != nil {
				t.Fatal(err)
			}
			cfg := fig6Config(arch)
			cfg.Profile = NewProfile()
			profiled, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Breakdown != profiled.Breakdown {
				t.Fatalf("breakdown differs with profiling on: %+v vs %+v", plain.Breakdown, profiled.Breakdown)
			}
			if !reflect.DeepEqual(plain.Machine, profiled.Machine) {
				t.Fatal("stats.Machine differs with profiling on")
			}
			if !reflect.DeepEqual(plain.Mesh, profiled.Mesh) {
				t.Fatal("mesh stats differ with profiling on")
			}

			cfg2 := fig6Config(arch)
			cfg2.Profile = NewProfile()
			if _, err := Run(cfg2); err != nil {
				t.Fatal(err)
			}
			if a, b := foldedText(t, cfg.Profile), foldedText(t, cfg2.Profile); a != b {
				t.Fatalf("profiles differ between identical runs:\n%s\nvs\n%s", a, b)
			}
			if !reflect.DeepEqual(cfg.Profile.Samples(), cfg2.Profile.Samples()) {
				t.Fatal("mesh queue-depth samples differ between identical runs")
			}
		})
	}
}

// TestProfileSweepDeterminism: per-run profiles — including the every-64th
// mesh queue-depth samples — are identical whether the batch runs on one
// sweep worker or several.
func TestProfileSweepDeterminism(t *testing.T) {
	collect := func(workers int) []*Profile {
		cfgs := make([]Config, 4)
		profs := make([]*Profile, len(cfgs))
		for i := range cfgs {
			cfgs[i] = fig6Config(AGG)
			cfgs[i].Arch = []Arch{AGG, NUMA, COMA, AGG}[i]
			profs[i] = NewProfile()
			cfgs[i].Profile = profs[i]
		}
		if _, err := (Sweep{Workers: workers}).RunMany(cfgs); err != nil {
			t.Fatal(err)
		}
		return profs
	}
	one := collect(1)
	four := collect(4)
	for i := range one {
		if a, b := foldedText(t, one[i]), foldedText(t, four[i]); a != b {
			t.Fatalf("config %d: folded profile differs between 1 and 4 workers:\n%s\nvs\n%s", i, a, b)
		}
		if !reflect.DeepEqual(one[i].Samples(), four[i].Samples()) {
			t.Fatalf("config %d: mesh samples differ between 1 and 4 workers", i)
		}
	}
}

func foldedText(t *testing.T, p *Profile) string {
	t.Helper()
	var b strings.Builder
	if err := WriteFoldedProfile(&b, p); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestBaselineRoundTrip: the regression harness compares a baseline against
// itself cleanly, catches an injected latency regression, and survives a
// JSON round trip.
func TestBaselineRoundTrip(t *testing.T) {
	b := &Baseline{Schema: BaselineSchema, Metrics: map[string]float64{
		"fft/NUMA/exec_cycles":   100000,
		"fft/NUMA/avg_read_lat":  250,
		"fft/NUMA/invalidations": 400,
	}}
	if bad := CompareBaselines(b, b); len(bad) != 0 {
		t.Fatalf("baseline does not match itself: %v", bad)
	}

	hot := &Baseline{Schema: BaselineSchema, Metrics: map[string]float64{
		"fft/NUMA/exec_cycles":   105000, // +5% > 2% tolerance
		"fft/NUMA/avg_read_lat":  250,
		"fft/NUMA/invalidations": 401, // +0.25% < 0.5% tolerance
	}}
	bad := CompareBaselines(hot, b)
	if len(bad) != 1 || !strings.Contains(bad[0], "exec_cycles") {
		t.Fatalf("injected regression not isolated: %v", bad)
	}

	var buf strings.Builder
	if err := WriteBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadBaseline(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt, b) {
		t.Fatalf("baseline JSON round trip changed it: %+v vs %+v", rt, b)
	}

	if _, err := ReadBaseline(strings.NewReader("{}")); err == nil {
		t.Fatal("metrics-less baseline accepted")
	}
	stale := &Baseline{Schema: BaselineSchema + 1, Metrics: b.Metrics}
	if bad := CompareBaselines(stale, b); len(bad) == 0 || !strings.Contains(bad[0], "schema") {
		t.Fatalf("schema mismatch not reported: %v", bad)
	}
}
