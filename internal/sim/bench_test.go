package sim

import "testing"

// benchThread is a minimal self-clocking thread for scheduler benchmarks.
type benchThread struct {
	id    int
	clock Time
	step  Time
}

func (t *benchThread) ID() int        { return t.id }
func (t *benchThread) Clock() Time    { return t.clock }
func (t *benchThread) Resume(at Time) { t.clock = at }
func (t *benchThread) Step() Status {
	t.clock += t.step
	return Runnable
}

// BenchmarkSchedulerStep measures the scheduler's pick-min/step/reheap cycle
// with 32 runnable threads advancing at coprime rates (so the heap order
// keeps changing, as in a real run).
func BenchmarkSchedulerStep(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	for i := 0; i < 32; i++ {
		s.Add(&benchThread{id: i, step: Time(13 + i*7)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkResourceAcquire measures the busy-calendar resource under
// out-of-order arrivals ahead of an advancing floor, as in a scheduled run.
// Steady state must report 0 allocs/op: retirement below the floor recycles
// the calendar's backing array.
func BenchmarkResourceAcquire(b *testing.B) {
	b.ReportAllocs()
	s := newSteadyStream()
	for i := 0; i < 1<<14; i++ {
		s.next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.next()
	}
}
