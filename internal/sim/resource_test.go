package sim

import (
	"math/rand"
	"testing"
)

// floorPair drives a floored Resource and a floorless reference with the
// same requests and fails the test on the first observable difference.
type floorPair struct {
	t          *testing.T
	floor      Time
	fl, ref    Resource
	maxLen     int // largest floored calendar seen
	retirement bool
}

func newFloorPair(t *testing.T) *floorPair {
	p := &floorPair{t: t}
	p.fl.SetFloor(&p.floor)
	return p
}

func (p *floorPair) acquire(now, hold Time) {
	p.t.Helper()
	n := len(p.fl.iv)
	a, b := p.fl.Acquire(now, hold), p.ref.Acquire(now, hold)
	if a != b {
		p.t.Fatalf("Acquire(%d, %d) at floor %d: floored start %d, reference %d", now, hold, p.floor, a, b)
	}
	p.note(n)
}

func (p *floorPair) block(from, to Time) {
	p.t.Helper()
	n := len(p.fl.iv)
	p.fl.Block(from, to)
	p.ref.Block(from, to)
	p.note(n)
}

// note records whether the last request retired intervals: the floored
// calendar shrank, or stayed shorter than the reference.
func (p *floorPair) note(before int) {
	if len(p.fl.iv) < before || len(p.fl.iv) < len(p.ref.iv) {
		p.retirement = true
	}
	p.maxLen = max(p.maxLen, len(p.fl.iv))
}

// check compares every observable at or above the floor.
func (p *floorPair) check() {
	p.t.Helper()
	fb, fa, fw := p.fl.Utilization()
	rb, ra, rw := p.ref.Utilization()
	if fb != rb || fa != ra || fw != rw {
		p.t.Fatalf("Utilization: floored (%d,%d,%d), reference (%d,%d,%d)", fb, fa, fw, rb, ra, rw)
	}
	if a, b := p.fl.FreeAt(), p.ref.FreeAt(); a != b {
		p.t.Fatalf("FreeAt: floored %d, reference %d", a, b)
	}
	probe := func(at Time) {
		if at < p.floor {
			return
		}
		if a, b := p.fl.QueueDepth(at), p.ref.QueueDepth(at); a != b {
			p.t.Fatalf("QueueDepth(%d) at floor %d: floored %d, reference %d", at, p.floor, a, b)
		}
	}
	probe(p.floor)
	for _, iv := range p.ref.iv {
		for _, at := range []Time{iv.s - 1, iv.s, iv.e - 1, iv.e} {
			probe(at)
		}
	}
}

// Differential property: with a monotone floor at or below every arrival, a
// floored Resource is observably identical to one that keeps every interval
// — same start times, Utilization, FreeAt, and QueueDepth at or above the
// floor — while its calendar stays bounded.
func TestResourceFloorDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newFloorPair(t)
		window := Time(64 + rng.Intn(4096)) // how far arrivals run ahead of the floor
		for op := 0; op < 3000; op++ {
			// The floor advances 40 cycles per request on average, about
			// twice the mean hold, so the calendar keeps gaps to backfill.
			if rng.Intn(4) == 0 {
				p.floor += Time(rng.Intn(320))
			}
			now := p.floor + Time(rng.Intn(int(window)))
			switch r := rng.Intn(20); {
			case r == 0:
				p.acquire(now, 0)
			case r == 1:
				p.block(now, now+Time(rng.Intn(200)))
			case r == 2:
				p.acquire(p.floor, Time(1+rng.Intn(40))) // arrival exactly at the floor
			default:
				p.acquire(now, Time(1+rng.Intn(40)))
			}
			if op%97 == 0 {
				p.check()
			}
		}
		p.check()
		// Jump the floor past every reservation: all intervals now lie
		// below it, and FreeAt must still report the last one.
		p.floor = p.ref.FreeAt() + window
		p.check()
		p.acquire(p.floor, 5)
		p.check()
		if !p.retirement {
			t.Fatalf("seed %d: floored calendar never retired an interval", seed)
		}
		if p.maxLen >= len(p.ref.iv) {
			t.Fatalf("seed %d: floored calendar reached %d intervals, reference holds %d", seed, p.maxLen, len(p.ref.iv))
		}
	}
}

// Retirement keeps the tail even when every interval lies below the floor,
// so FreeAt still reports the last reservation.
func TestResourceRetireKeepsTail(t *testing.T) {
	var floor Time
	var r Resource
	r.SetFloor(&floor)
	for i := Time(0); i < 8; i++ {
		r.Acquire(i*100, 10) // disjoint: one interval each
	}
	if len(r.iv) != cap(r.iv) {
		t.Fatalf("setup: calendar len %d, cap %d; want a full calendar", len(r.iv), cap(r.iv))
	}
	floor = 10_000
	if k := r.retire(); k != 7 {
		t.Fatalf("retired %d intervals, want 7 (all but the tail)", k)
	}
	if got := r.FreeAt(); got != 710 {
		t.Fatalf("FreeAt after retiring everything below the floor = %d, want 710", got)
	}
	if d := r.QueueDepth(floor); d != 0 {
		t.Fatalf("QueueDepth(floor) = %d, want 0", d)
	}
	if start := r.Acquire(floor, 10); start != floor {
		t.Fatalf("Acquire at the floor started at %d, want %d", start, floor)
	}
}

func TestResourceBelowFloorPanics(t *testing.T) {
	for name, req := range map[string]func(*Resource){
		"Acquire": func(r *Resource) { r.Acquire(99, 1) },
		"Block":   func(r *Resource) { r.Block(99, 150) },
	} {
		t.Run(name, func(t *testing.T) {
			floor := Time(100)
			var r Resource
			r.SetFloor(&floor)
			r.Acquire(100, 10) // at the floor is fine
			defer func() {
				if recover() == nil {
					t.Fatalf("%s below the floor did not panic", name)
				}
			}()
			req(&r)
		})
	}
}

// steadyStream is a floored, out-of-order arrival stream whose calendar
// reaches a steady size: arrivals land up to 4096 cycles ahead of a floor
// that advances 3 cycles per request.
type steadyStream struct {
	floor Time
	r     Resource
	i     int
}

func newSteadyStream() *steadyStream {
	s := &steadyStream{}
	s.r.SetFloor(&s.floor)
	return s
}

func (s *steadyStream) next() {
	s.i++
	s.floor += 3
	s.r.Acquire(s.floor+Time(s.i*7919%4096), 2)
}

// TestResourceZeroAlloc pins the floored steady state at zero allocations:
// retirement recycles the calendar's backing array instead of growing it.
func TestResourceZeroAlloc(t *testing.T) {
	s := newSteadyStream()
	for i := 0; i < 1<<14; i++ {
		s.next()
	}
	if allocs := testing.AllocsPerRun(1<<14, s.next); allocs != 0 {
		t.Fatalf("steady-state Acquire allocates %.3f times per call, want 0", allocs)
	}
}
