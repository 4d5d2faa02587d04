package machine

import (
	"strings"
	"testing"

	"pimdsm/internal/coma"
	"pimdsm/internal/core"
	"pimdsm/internal/numa"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/workload"
)

func smallCfg(arch Arch, app string) Config {
	return Config{
		Arch:     arch,
		App:      workload.Spec{Name: app, Scale: 0.05},
		Threads:  4,
		Pressure: 0.75,
		DRatio:   1,
	}
}

func TestRunAllArchesSmoke(t *testing.T) {
	for _, arch := range []Arch{AGG, NUMA, COMA} {
		for _, app := range []string{"fft", "ocean"} {
			res, err := Run(smallCfg(arch, app))
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, app, err)
			}
			if res.Breakdown.Exec == 0 {
				t.Fatalf("%s/%s: zero execution time", arch, app)
			}
			if res.Breakdown.Memory+res.Breakdown.Processor != res.Breakdown.Exec {
				t.Fatalf("%s/%s: breakdown doesn't add up: %+v", arch, app, res.Breakdown)
			}
			if res.Machine.Reads() == 0 {
				t.Fatalf("%s/%s: no reads recorded", arch, app)
			}
		}
	}
}

func TestRunAllAppsOnAGG(t *testing.T) {
	apps := append(workload.Names(), "dbase-opt")
	for _, app := range apps {
		res, err := Run(smallCfg(AGG, app))
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if res.Breakdown.Exec == 0 {
			t.Fatalf("%s: zero exec time", app)
		}
	}
}

func TestSizeValidation(t *testing.T) {
	if _, err := Size(Config{Arch: AGG, Threads: 0, Pressure: 0.5}, 1<<20); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := Size(Config{Arch: AGG, Threads: 4, Pressure: 0}, 1<<20); err == nil {
		t.Error("zero pressure accepted")
	}
	if _, err := Size(Config{Arch: "vax", Threads: 4, Pressure: 0.5}, 1<<20); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestSizingInvariants(t *testing.T) {
	fp := uint64(8 << 20)
	// AGG: total D memory constant across D-node counts.
	base, err := Size(Config{Arch: AGG, Threads: 32, Pressure: 0.75, DRatio: 1}, fp)
	if err != nil {
		t.Fatal(err)
	}
	quarter, err := Size(Config{Arch: AGG, Threads: 32, Pressure: 0.75, DRatio: 4}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if base.DNodes != 32 || quarter.DNodes != 8 {
		t.Fatalf("D-node counts %d/%d", base.DNodes, quarter.DNodes)
	}
	baseTotal, quarterTotal := base.DMemLines*32, quarter.DMemLines*8
	diff := baseTotal - quarterTotal
	if diff < 0 {
		diff = -diff
	}
	if diff > 32 { // integer rounding of per-node capacity only
		t.Fatalf("total D memory changed: %d vs %d", baseTotal, quarterTotal)
	}
	// NUMA per-node memory is twice AGG's per-P-node memory (Figure 5).
	n, err := Size(Config{Arch: NUMA, Threads: 32, Pressure: 0.75}, fp)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(n.PMemBytes) / float64(base.PMemBytes)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("NUMA/AGG per-node memory ratio = %v, want ≈2", ratio)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(smallCfg(AGG, "fft"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg(AGG, "fft"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Breakdown != b.Breakdown {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Breakdown, b.Breakdown)
	}
	if a.Machine.Reads() != b.Machine.Reads() {
		t.Fatal("nondeterministic read counts")
	}
}

func TestMeasurementExcludesWarmup(t *testing.T) {
	res, err := Run(smallCfg(AGG, "ocean"))
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up is all stores; the measured region must contain loads and its
	// exec time must be positive but below the total simulated time.
	if res.Machine.Reads() == 0 {
		t.Fatal("no measured reads")
	}
	if res.PhaseEnd[workload.PhaseMeasured] != 0 {
		t.Fatalf("PhaseMeasured end = %d, want 0 (measurement origin)", res.PhaseEnd[workload.PhaseMeasured])
	}
}

func TestCensusPopulatedForAGG(t *testing.T) {
	res, err := Run(smallCfg(AGG, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Census
	if c.SlotCap == 0 || c.DirtyInP+c.SharedInP+c.DNodeOnly == 0 {
		t.Fatalf("census empty: %+v", c)
	}
}

func TestDbaseOptUsesScans(t *testing.T) {
	res, err := Run(smallCfg(AGG, "dbase-opt"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.Scans == 0 {
		t.Fatal("no scans recorded on dbase-opt")
	}
}

func TestLatencyClassesPopulated(t *testing.T) {
	res, err := Run(smallCfg(AGG, "fft"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.ReadCount[proto.LatL1]+res.Machine.ReadCount[proto.LatL2] == 0 {
		t.Fatal("no SRAM cache hits")
	}
	if res.Machine.ReadCount[proto.Lat2Hop]+res.Machine.ReadCount[proto.Lat3Hop] == 0 {
		t.Fatal("no remote reads in FFT transpose")
	}
}

// accessor is the part of a machine the skeleton tests drive.
type accessor interface {
	Access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass)
}

// newTiny builds a small machine of the given architecture with nodes mesh
// endpoints (AGG splits them evenly into P- and D-nodes) on a w x h mesh
// (0 x 0 derives the mesh from the node count).
func newTiny(arch Arch, nodes, w, h int) (accessor, error) {
	switch arch {
	case AGG:
		c := core.DefaultConfig(nodes/2, nodes/2, 1<<20, 4096, 8192, 32768)
		c.Mesh.Width, c.Mesh.Height = w, h
		return core.New(c)
	case NUMA:
		c := numa.DefaultConfig(nodes, 1<<20, 8192, 32768)
		c.Mesh.Width, c.Mesh.Height = w, h
		return numa.New(c)
	default:
		c := coma.DefaultConfig(nodes, 1<<20, 8192, 32768)
		c.Mesh.Width, c.Mesh.Height = w, h
		return coma.New(c)
	}
}

// TestNewRejectsSmallMesh: an explicit mesh with fewer endpoints than the
// machine has nodes is a construction error on every machine, not a later
// out-of-range panic in Mesh.Send.
func TestNewRejectsSmallMesh(t *testing.T) {
	for _, arch := range []Arch{AGG, NUMA, COMA} {
		if _, err := newTiny(arch, 8, 2, 2); err == nil || !strings.Contains(err.Error(), "too small") {
			t.Errorf("%s: 8 nodes on a 2x2 mesh: err = %v, want a too-small error", arch, err)
		}
		if _, err := newTiny(arch, 8, 4, 2); err != nil {
			t.Errorf("%s: 8 nodes on a 4x2 mesh: %v", arch, err)
		}
	}
}

// TestAccessHitZeroAlloc pins the shared Access wrapper's L1-hit path at
// zero heap allocations on every machine, with observers off.
func TestAccessHitZeroAlloc(t *testing.T) {
	for _, arch := range []Arch{AGG, NUMA, COMA} {
		m, err := newTiny(arch, 4, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		now, _ := m.Access(0, 0, 0x1000, false)
		if _, class := m.Access(now, 0, 0x1000, false); class != proto.LatL1 {
			t.Fatalf("%s: warmed access satisfied at %v, want an L1 hit", arch, class)
		}
		if n := testing.AllocsPerRun(1000, func() { now, _ = m.Access(now, 0, 0x1000, false) }); n != 0 {
			t.Errorf("%s: L1-hit Access allocates %v times per call, want 0", arch, n)
		}
	}
}
