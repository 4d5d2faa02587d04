package cpu

import (
	"runtime"
	"testing"

	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

// fakeMem completes every access after a fixed latency, optionally
// serializing through a bank.
type fakeMem struct {
	lat      sim.Time
	accesses int
	bank     *sim.Resource
}

func (f *fakeMem) Access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass) {
	f.accesses++
	if f.bank != nil {
		start := f.bank.Acquire(now, f.lat)
		return start + f.lat, proto.LatMem
	}
	return now + f.lat, proto.LatMem
}

func run1(t *testing.T, mem Memory, ops []Op) *Thread {
	t.Helper()
	sched := sim.NewScheduler()
	th := NewThread(0, mem, nil, &SliceStream{Ops: ops}, NewSyncDomain(sched), DefaultParams())
	sched.Add(th)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	return th
}

func TestComputeAdvancesBusy(t *testing.T) {
	th := run1(t, &fakeMem{lat: 10}, []Op{{Kind: OpCompute, N: 100}, {Kind: OpCompute, N: 50}})
	s := th.Stats()
	if th.Clock() != 150 || s.Busy != 150 || s.MemStall != 0 {
		t.Fatalf("clock=%d busy=%d stall=%d", th.Clock(), s.Busy, s.MemStall)
	}
}

func TestDependentLoadExposesFullLatency(t *testing.T) {
	th := run1(t, &fakeMem{lat: 300}, []Op{{Kind: OpLoad, Addr: 0}})
	s := th.Stats()
	if th.Clock() != 300 || s.MemStall != 300 {
		t.Fatalf("clock=%d stall=%d, want 300/300", th.Clock(), s.MemStall)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// 8 independent 300-cycle loads: issue 1/cycle, all overlap; final
	// drain at stream end waits for the last (issued at 7, done at 307).
	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = Op{Kind: OpLoad, Addr: uint64(i * 128), Indep: true}
	}
	th := run1(t, &fakeMem{lat: 300}, ops)
	if th.Clock() != 307 {
		t.Fatalf("clock=%d, want 307 (overlapped)", th.Clock())
	}
	s := th.Stats()
	// Sequential would be 2400; overlap must slash the stall.
	if s.MemStall >= 400 {
		t.Fatalf("stall=%d, want < 400", s.MemStall)
	}
}

func TestLoadBufferLimitThrottles(t *testing.T) {
	// 20 independent loads with a 16-entry load buffer: issues 17..20 must
	// wait for earlier completions.
	ops := make([]Op, 20)
	for i := range ops {
		ops[i] = Op{Kind: OpLoad, Addr: uint64(i * 128), Indep: true}
	}
	th := run1(t, &fakeMem{lat: 1000}, ops)
	s := th.Stats()
	if s.MemStall == 0 {
		t.Fatal("no stall despite exceeding the load buffer")
	}
	// Completion: the 20th load issues after ~4 earlier loads completed
	// (~1000+), finishes ~2000s; far below sequential 20000.
	if th.Clock() >= 5000 {
		t.Fatalf("clock=%d, want MLP-limited (< 5000)", th.Clock())
	}
}

func TestDependentLoadWaitsForOutstanding(t *testing.T) {
	ops := []Op{
		{Kind: OpLoad, Addr: 0, Indep: true},
		{Kind: OpLoad, Addr: 128}, // dependent: must wait for the first
	}
	th := run1(t, &fakeMem{lat: 200}, ops)
	// First issues at 0 (done 200); dependent waits to 200, then 200 more.
	if th.Clock() != 400 {
		t.Fatalf("clock=%d, want 400", th.Clock())
	}
}

func TestWriteBufferHidesStores(t *testing.T) {
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{Kind: OpStore, Addr: uint64(i * 128)}
	}
	th := run1(t, &fakeMem{lat: 300}, ops)
	s := th.Stats()
	// Stores are buffered: stall only at final drain.
	if s.MemStall >= 350 {
		t.Fatalf("store stall=%d, want only the final drain", s.MemStall)
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	par := DefaultParams()
	par.WriteBuffer = 2
	sched := sim.NewScheduler()
	ops := make([]Op, 6)
	for i := range ops {
		ops[i] = Op{Kind: OpStore, Addr: uint64(i * 128)}
	}
	th := NewThread(0, &fakeMem{lat: 500}, nil, &SliceStream{Ops: ops}, NewSyncDomain(sched), par)
	sched.Add(th)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if th.Stats().MemStall == 0 {
		t.Fatal("no stall with a full write buffer")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	sched := sim.NewScheduler()
	sd := NewSyncDomain(sched)
	mem := &fakeMem{lat: 10}
	mk := func(id int, work uint32) *Thread {
		return NewThread(id, mem, nil, &SliceStream{Ops: []Op{
			{Kind: OpCompute, N: work},
			{Kind: OpBarrier, N: 3},
			{Kind: OpCompute, N: 10},
		}}, sd, DefaultParams())
	}
	ths := []*Thread{mk(0, 100), mk(1, 500), mk(2, 900)}
	for _, th := range ths {
		sched.Add(th)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	// All finish at lastArrival(900) + exit(100) + 10 = 1010, except the
	// last arriver which pays no exit broadcast wait in this model.
	for i, th := range ths[:2] {
		if th.Clock() != 1010 {
			t.Fatalf("thread %d clock=%d, want 1010", i, th.Clock())
		}
	}
	if ths[2].Clock() != 910 {
		t.Fatalf("last arriver clock=%d, want 910", ths[2].Clock())
	}
	// Early arrivers' spin counts as sync, not memory.
	s := ths[0].Stats()
	if s.SyncSpin != 900 || s.MemStall != 0 {
		t.Fatalf("thread 0 spin=%d stall=%d", s.SyncSpin, s.MemStall)
	}
	if sd.Barriers != 1 {
		t.Fatalf("barrier episodes=%d", sd.Barriers)
	}
}

func TestLockMutualExclusionAndHandoff(t *testing.T) {
	sched := sim.NewScheduler()
	sd := NewSyncDomain(sched)
	mem := &fakeMem{lat: 50}
	const lockAddr = 0x9000
	mk := func(id int) *Thread {
		return NewThread(id, mem, nil, &SliceStream{Ops: []Op{
			{Kind: OpAcquire, Addr: lockAddr},
			{Kind: OpCompute, N: 200}, // critical section
			{Kind: OpRelease, Addr: lockAddr},
		}}, sd, DefaultParams())
	}
	a, b, c := mk(0), mk(1), mk(2)
	sched.Add(a)
	sched.Add(b)
	sched.Add(c)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	// Critical sections serialize: total ≈ 3 × (acquire 50 + cs 200 + release 50).
	clocks := []sim.Time{a.Clock(), b.Clock(), c.Clock()}
	maxC := clocks[0]
	for _, cl := range clocks {
		if cl > maxC {
			maxC = cl
		}
	}
	if maxC < 3*250 {
		t.Fatalf("lock did not serialize: max clock %d < 750", maxC)
	}
	if sd.LockOps == 0 {
		t.Fatal("no lock ops recorded")
	}
}

func TestReleaseWithoutHoldPanics(t *testing.T) {
	sched := sim.NewScheduler()
	sd := NewSyncDomain(sched)
	th := NewThread(0, &fakeMem{lat: 1}, nil, &SliceStream{Ops: []Op{
		{Kind: OpRelease, Addr: 0x1},
	}}, sd, DefaultParams())
	sched.Add(th)
	defer func() {
		if recover() == nil {
			t.Fatal("release of unheld lock did not panic")
		}
	}()
	_ = sched.Run()
}

func TestPhaseHook(t *testing.T) {
	var gotPhase int
	var gotAt sim.Time
	sched := sim.NewScheduler()
	th := NewThread(0, &fakeMem{lat: 1}, nil, &SliceStream{Ops: []Op{
		{Kind: OpCompute, N: 77},
		{Kind: OpPhase, N: 2},
	}}, NewSyncDomain(sched), DefaultParams())
	th.SetPhaseHook(func(_, phase int, at sim.Time) { gotPhase, gotAt = phase, at })
	sched.Add(th)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if gotPhase != 2 || gotAt != 77 {
		t.Fatalf("phase hook got (%d,%d), want (2,77)", gotPhase, gotAt)
	}
}

func TestResetMeasurementExcludesWarmup(t *testing.T) {
	sched := sim.NewScheduler()
	th := NewThread(0, &fakeMem{lat: 100}, nil, &SliceStream{Ops: []Op{
		{Kind: OpLoad, Addr: 0},
	}}, NewSyncDomain(sched), DefaultParams())
	sched.Add(th)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	th.ResetMeasurement()
	s := th.Stats()
	if s.MemStall != 0 || s.Finish != 0 {
		t.Fatalf("post-reset stats = %+v", s)
	}
}

// floorMem serializes every access through one bank bounded by the
// scheduler's floor and records any access issued below it.
type floorMem struct {
	floor *sim.Time
	bank  sim.Resource
	below int
}

func (f *floorMem) Access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass) {
	if now < *f.floor {
		f.below++
	}
	return f.bank.Acquire(now, 40) + 40, proto.LatMem
}

// The scheduler's floor never decreases across barrier parks and lock
// hand-offs, and no access is issued below it: a woken thread resumes at or
// after its releaser's time.
func TestFloorMonotoneAcrossSync(t *testing.T) {
	const n, rounds, lockAddr = 4, 6, 0x9000
	sched := sim.NewScheduler()
	sd := NewSyncDomain(sched)
	mem := &floorMem{floor: sched.Floor()}
	mem.bank.SetFloor(sched.Floor())
	for id := 0; id < n; id++ {
		var ops []Op
		for r := 0; r < rounds; r++ {
			ops = append(ops,
				Op{Kind: OpCompute, N: uint32(50 + 170*id + 31*r)},
				Op{Kind: OpLoad, Addr: uint64(id*128 + r), Indep: true},
				Op{Kind: OpStore, Addr: uint64(0x1000 + id*128)},
				Op{Kind: OpAcquire, Addr: lockAddr},
				Op{Kind: OpCompute, N: 300}, // long critical section: contenders park
				Op{Kind: OpStore, Addr: lockAddr + 128},
				Op{Kind: OpRelease, Addr: lockAddr},
				Op{Kind: OpLoad, Addr: uint64(0x2000 + r*128)},
				Op{Kind: OpBarrier, N: n},
			)
		}
		sched.Add(NewThread(id, mem, nil, &SliceStream{Ops: ops}, sd, DefaultParams()))
	}
	var prev sim.Time
	parks := 0
	for {
		running, done := sched.Running(), sched.Done()
		if !sched.Step() {
			break
		}
		if f := *sched.Floor(); f < prev {
			t.Fatalf("floor decreased from %d to %d", prev, f)
		} else {
			prev = f
		}
		if sched.Running() < running && sched.Done() == done {
			parks++
		}
	}
	if sched.Done() != n {
		t.Fatalf("%d of %d threads finished", sched.Done(), n)
	}
	if mem.below != 0 {
		t.Fatalf("%d accesses issued below the floor", mem.below)
	}
	if sd.Barriers != rounds {
		t.Fatalf("barrier episodes = %d, want %d", sd.Barriers, rounds)
	}
	if lockParks := parks - rounds*(n-1); lockParks <= 0 {
		t.Fatalf("no lock hand-offs exercised (%d parks, all at barriers)", parks)
	}
}

// TestThreadBuffersNoGrowth: a fresh thread whose write and load buffers fill
// to their limits allocates nothing while stepping, because NewThread sizes
// both buffers for their limits.
func TestThreadBuffersNoGrowth(t *testing.T) {
	par := DefaultParams()
	var ops []Op
	for range par.WriteBuffer + 8 {
		ops = append(ops, Op{Kind: OpStore, Addr: 0x80})
	}
	for range par.LoadBuffer + 8 {
		ops = append(ops, Op{Kind: OpLoad, Addr: 0x40, Indep: true})
	}
	th := NewThread(0, &fakeMem{lat: 10000}, nil, &SliceStream{Ops: ops}, nil, par)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for range ops {
		th.Step()
	}
	runtime.ReadMemStats(&ms)
	if n := ms.Mallocs - before; n != 0 {
		t.Errorf("%d steps filling both buffers allocated %d times, want 0", len(ops), n)
	}
	if len(th.outstanding) != par.LoadBuffer || len(th.wbuf) != par.WriteBuffer {
		t.Errorf("buffers hold %d loads and %d stores, want them full", len(th.outstanding), len(th.wbuf))
	}
}
