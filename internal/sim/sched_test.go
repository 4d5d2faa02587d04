package sim

import (
	"testing"
)

// stubThread advances its clock by stride each step, finishing after n steps.
// It records the global order in which steps happen into trace.
type stubThread struct {
	id     int
	clock  Time
	stride Time
	left   int
	trace  *[]stepRecord
	parkAt int // park on this remaining-step count (0 = never)
}

type stepRecord struct {
	id    int
	clock Time
}

func (s *stubThread) ID() int     { return s.id }
func (s *stubThread) Clock() Time { return s.clock }
func (s *stubThread) Resume(t Time) {
	if t > s.clock {
		s.clock = t
	}
}
func (s *stubThread) Step() Status {
	*s.trace = append(*s.trace, stepRecord{s.id, s.clock})
	s.clock += s.stride
	s.left--
	if s.left == 0 {
		return Done
	}
	if s.parkAt != 0 && s.left == s.parkAt {
		return Parked
	}
	return Runnable
}

func TestSchedulerGlobalOrder(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 0, stride: 7, left: 20, trace: &trace})
	s.Add(&stubThread{id: 1, stride: 3, left: 40, trace: &trace})
	s.Add(&stubThread{id: 2, stride: 11, left: 12, trace: &trace})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 72 {
		t.Fatalf("ran %d steps, want 72", len(trace))
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].clock < trace[i-1].clock {
			t.Fatalf("global time went backwards at step %d: %v -> %v", i, trace[i-1], trace[i])
		}
	}
	if s.Done() != 3 {
		t.Fatalf("Done = %d, want 3", s.Done())
	}
}

func TestSchedulerTieBreakByID(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 2, stride: 10, left: 3, trace: &trace})
	s.Add(&stubThread{id: 0, stride: 10, left: 3, trace: &trace})
	s.Add(&stubThread{id: 1, stride: 10, left: 3, trace: &trace})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// At every time step all three have equal clocks; order must be 0,1,2.
	for i := 0; i < len(trace); i += 3 {
		if trace[i].id != 0 || trace[i+1].id != 1 || trace[i+2].id != 2 {
			t.Fatalf("tie-break order wrong at %d: %v", i, trace[i:i+3])
		}
	}
}

func TestSchedulerParkUnpark(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	a := &stubThread{id: 0, stride: 5, left: 4, parkAt: 2, trace: &trace}
	b := &stubThread{id: 1, stride: 5, left: 2, trace: &trace}
	s.Add(a)
	s.Add(b)
	// Run until a parks and b finishes.
	for s.Step() {
	}
	if a.left != 2 {
		t.Fatalf("a.left = %d, want 2 (parked)", a.left)
	}
	s.Unpark(0, 100)
	if a.Clock() != 100 {
		t.Fatalf("resumed clock = %d, want 100", a.Clock())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Done() != 2 {
		t.Fatalf("Done = %d, want 2", s.Done())
	}
}

func TestSchedulerDeadlockDetected(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 0, stride: 1, left: 5, parkAt: 3, trace: &trace})
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

func TestSchedulerDuplicateIDPanics(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 7, stride: 1, left: 1, trace: &trace})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ID did not panic")
		}
	}()
	s.Add(&stubThread{id: 7, stride: 1, left: 1, trace: &trace})
}

func TestSchedulerUnparkNonParkedPanics(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 0, stride: 1, left: 2, trace: &trace})
	defer func() {
		if recover() == nil {
			t.Fatal("Unpark of runnable thread did not panic")
		}
	}()
	s.Unpark(0, 10)
}

// Floor tracks the clock of each stepped heap root, and an Unpark at the
// releaser's time keeps it monotone.
func TestSchedulerFloor(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 0, stride: 7, left: 10, parkAt: 6, trace: &trace})
	s.Add(&stubThread{id: 1, stride: 3, left: 30, trace: &trace})
	floor := s.Floor()
	if *floor != 0 {
		t.Fatalf("initial floor = %d, want 0", *floor)
	}
	var prev Time
	unparked := false
	for s.Step() {
		last := trace[len(trace)-1]
		if *floor != last.clock {
			t.Fatalf("floor = %d after stepping thread %d at %d", *floor, last.id, last.clock)
		}
		if *floor < prev {
			t.Fatalf("floor decreased from %d to %d", prev, *floor)
		}
		prev = *floor
		if last.id == 1 && last.clock >= 60 && !unparked {
			s.Unpark(0, last.clock) // release at the releaser's time
			unparked = true
		}
	}
	if !unparked || s.Done() != 2 {
		t.Fatalf("unparked=%v done=%d, want a release and both threads finished", unparked, s.Done())
	}
}
