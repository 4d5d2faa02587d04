// Package cpu models the paper's processors (Table 1): 4-issue 1 GHz
// superscalars with up to 32 outstanding memory accesses of which 16 may be
// loads, a 32-entry write buffer, and blocking behaviour only on dependent
// loads. Threads execute an operation stream (compute bursts, loads, stores,
// synchronization) against a coherence engine, tracking the Figure 6 time
// breakdown: memory stall vs. processor time, with synchronization spin
// counted as processor time (§4.1).
package cpu

import (
	"fmt"

	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

// Memory is the coherence engine a processor drives. All three architecture
// engines (AGG, NUMA, COMA) implement it.
type Memory interface {
	Access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass)
}

// Scanner runs a computation-in-memory scan (§2.4): traverse lines lines
// starting at addr at the region's home D-node on behalf of processor p,
// returning only selected records. Only the AGG engine provides one.
type Scanner interface {
	Scan(now sim.Time, p int, addr uint64, lines int, selectedBytes uint64) sim.Time
}

// OpKind enumerates workload operations.
type OpKind uint8

const (
	// OpCompute executes N cycles of instructions.
	OpCompute OpKind = iota
	// OpLoad reads Addr. Indep marks it overlappable with outstanding loads.
	OpLoad
	// OpStore writes Addr through the write buffer.
	OpStore
	// OpBarrier joins a global barrier with N participants.
	OpBarrier
	// OpAcquire takes the queue lock at Addr.
	OpAcquire
	// OpRelease releases the lock at Addr.
	OpRelease
	// OpPhase marks an application phase boundary (N is the phase number).
	OpPhase
	// OpScan asks the home D-node to scan N lines at Addr, shipping back
	// SelBytes of selected records (computation in memory, §2.4).
	OpScan
)

// Op is one workload operation.
type Op struct {
	Kind     OpKind
	Addr     uint64
	N        uint32 // cycles / participants / phase id / scan lines
	SelBytes uint32 // OpScan: selected bytes returned
	Indep    bool   // OpLoad: independent of other outstanding loads
}

// Stream supplies a thread's operations lazily.
type Stream interface {
	Next() (Op, bool)
}

// SliceStream adapts a fixed []Op to a Stream; handy in tests.
type SliceStream struct {
	Ops []Op
	i   int
}

// Next pops the next op.
func (s *SliceStream) Next() (Op, bool) {
	if s.i >= len(s.Ops) {
		return Op{}, false
	}
	op := s.Ops[s.i]
	s.i++
	return op, true
}

// Params sets the processor's structural limits.
type Params struct {
	LoadBuffer  int      // max outstanding loads (16)
	WriteBuffer int      // max outstanding stores (32)
	IssueCycles sim.Time // per memory op issue cost on the 4-issue core
}

// DefaultParams returns Table 1's values.
func DefaultParams() Params {
	return Params{LoadBuffer: 16, WriteBuffer: 32, IssueCycles: 1}
}

// PhaseHook observes phase-boundary crossings: thread id, phase number, time.
type PhaseHook func(thread, phase int, at sim.Time)

// Thread is one simulated application thread bound to a P-node. It
// implements sim.Thread.
type Thread struct {
	id     int
	clock  sim.Time
	mem    Memory
	scan   Scanner
	stream Stream
	sync   *SyncDomain
	par    Params

	outstanding []sim.Time // completion times of in-flight loads
	wbuf        []sim.Time // completion times of buffered stores

	retry    Op   // op to re-execute after an Unpark (lock hand-off)
	retrying bool // retry holds an op
	parkedAt sim.Time

	phaseHook PhaseHook
	st        stats.Thread
	measureT0 sim.Time
}

// NewThread builds a thread. scan may be nil for machines without
// computation-in-memory support; executing an OpScan then panics.
func NewThread(id int, mem Memory, scan Scanner, stream Stream, sync *SyncDomain, par Params) *Thread {
	// Step drains each buffer below its limit before appending, so neither
	// ever grows past the capacity given here.
	return &Thread{id: id, mem: mem, scan: scan, stream: stream, sync: sync, par: par,
		outstanding: make([]sim.Time, 0, par.LoadBuffer),
		wbuf:        make([]sim.Time, 0, par.WriteBuffer),
	}
}

// SetPhaseHook registers a phase-boundary observer.
func (t *Thread) SetPhaseHook(h PhaseHook) { t.phaseHook = h }

// ID implements sim.Thread.
func (t *Thread) ID() int { return t.id }

// Clock implements sim.Thread.
func (t *Thread) Clock() sim.Time { return t.clock }

// Resume implements sim.Thread: spin time while parked counts as processor
// time (the paper's "spinning for synchronization").
func (t *Thread) Resume(at sim.Time) {
	if at > t.clock {
		t.st.SyncSpin += at - t.clock
		t.clock = at
	}
}

// Stats returns the thread's accounting relative to the last measurement
// reset.
func (t *Thread) Stats() stats.Thread {
	s := t.st
	s.Finish = t.clock - t.measureT0
	return s
}

// ResetMeasurement zeroes accounting so warm-up (e.g. parallel data
// initialization) is excluded from reported numbers.
func (t *Thread) ResetMeasurement() {
	t.st = stats.Thread{}
	t.measureT0 = t.clock
}

// drainLoadsUntil waits until fewer than limit loads are outstanding,
// charging the wait as memory stall.
func (t *Thread) drainLoadsUntil(limit int) {
	for len(t.outstanding) >= limit {
		earliest := 0
		for i := range t.outstanding {
			if t.outstanding[i] < t.outstanding[earliest] {
				earliest = i
			}
		}
		if done := t.outstanding[earliest]; done > t.clock {
			t.st.MemStall += done - t.clock
			t.clock = done
		}
		t.outstanding[earliest] = t.outstanding[len(t.outstanding)-1]
		t.outstanding = t.outstanding[:len(t.outstanding)-1]
	}
}

// pruneCompleted drops already-completed accesses.
func prune(buf []sim.Time, now sim.Time) []sim.Time {
	out := buf[:0]
	for _, d := range buf {
		if d > now {
			out = append(out, d)
		}
	}
	return out
}

// waitAllLoads blocks until every outstanding load completes (a dependent
// consumer), charging memory stall.
func (t *Thread) waitAllLoads() {
	var last sim.Time
	for _, d := range t.outstanding {
		if d > last {
			last = d
		}
	}
	t.outstanding = t.outstanding[:0]
	if last > t.clock {
		t.st.MemStall += last - t.clock
		t.clock = last
	}
}

// drainWriteBuffer blocks until every buffered store retires (memory
// barrier at synchronization points).
func (t *Thread) drainWriteBuffer() {
	var last sim.Time
	for _, d := range t.wbuf {
		if d > last {
			last = d
		}
	}
	t.wbuf = t.wbuf[:0]
	if last > t.clock {
		t.st.MemStall += last - t.clock
		t.clock = last
	}
}

// Step implements sim.Thread: execute one operation.
func (t *Thread) Step() sim.Status {
	var op Op
	if t.retrying {
		op = t.retry
		t.retrying = false
	} else {
		var ok bool
		op, ok = t.stream.Next()
		if !ok {
			// Program end: outstanding work must land.
			t.waitAllLoads()
			t.drainWriteBuffer()
			return sim.Done
		}
	}
	t.st.Ops++

	switch op.Kind {
	case OpCompute:
		t.clock += sim.Time(op.N)
		t.st.Busy += sim.Time(op.N)

	case OpLoad:
		t.st.Loads++
		t.outstanding = prune(t.outstanding, t.clock)
		if !op.Indep {
			t.waitAllLoads()
			done, _ := t.mem.Access(t.clock, t.id, op.Addr, false)
			t.st.MemStall += done - t.clock
			t.clock = done
			break
		}
		t.drainLoadsUntil(t.par.LoadBuffer)
		done, _ := t.mem.Access(t.clock, t.id, op.Addr, false)
		t.clock += t.par.IssueCycles
		t.st.Busy += t.par.IssueCycles
		if done > t.clock {
			t.outstanding = append(t.outstanding, done)
		}

	case OpStore:
		t.st.Stores++
		t.wbuf = prune(t.wbuf, t.clock)
		for len(t.wbuf) >= t.par.WriteBuffer {
			earliest := 0
			for i := range t.wbuf {
				if t.wbuf[i] < t.wbuf[earliest] {
					earliest = i
				}
			}
			if d := t.wbuf[earliest]; d > t.clock {
				t.st.MemStall += d - t.clock
				t.clock = d
			}
			t.wbuf[earliest] = t.wbuf[len(t.wbuf)-1]
			t.wbuf = t.wbuf[:len(t.wbuf)-1]
		}
		done, _ := t.mem.Access(t.clock, t.id, op.Addr, true)
		t.clock += t.par.IssueCycles
		t.st.Busy += t.par.IssueCycles
		if done > t.clock {
			t.wbuf = append(t.wbuf, done)
		}

	case OpBarrier:
		t.waitAllLoads()
		t.drainWriteBuffer()
		if t.sync == nil {
			panic("cpu: barrier without a sync domain")
		}
		if released := t.sync.barrierArrive(t.id, int(op.N), t.clock); !released {
			return sim.Parked
		}

	case OpAcquire:
		t.waitAllLoads()
		t.drainWriteBuffer()
		if t.sync == nil {
			panic("cpu: lock without a sync domain")
		}
		lk := t.sync.lock(op.Addr)
		if lk.holder == t.id {
			// Hand-off after a park: the lock is already ours; pay the
			// RMW that observes it.
			done, _ := t.mem.Access(t.clock, t.id, op.Addr, true)
			t.st.SyncSpin += done - t.clock
			t.clock = done
			break
		}
		if lk.holder >= 0 {
			lk.queue = append(lk.queue, t.id)
			t.retry, t.retrying = op, true
			return sim.Parked
		}
		lk.holder = t.id
		done, _ := t.mem.Access(t.clock, t.id, op.Addr, true)
		t.st.SyncSpin += done - t.clock
		t.clock = done

	case OpRelease:
		t.drainWriteBuffer()
		if t.sync == nil {
			panic("cpu: lock without a sync domain")
		}
		t.sync.release(op.Addr, t.id, t.clock)

	case OpPhase:
		t.waitAllLoads()
		t.drainWriteBuffer()
		if t.phaseHook != nil {
			t.phaseHook(t.id, int(op.N), t.clock)
		}

	case OpScan:
		t.waitAllLoads()
		t.drainWriteBuffer()
		if t.scan == nil {
			panic("cpu: OpScan on a machine without computation-in-memory support")
		}
		done := t.scan.Scan(t.clock, t.id, op.Addr, int(op.N), uint64(op.SelBytes))
		t.st.MemStall += done - t.clock
		t.clock = done

	default:
		panic(fmt.Sprintf("cpu: unknown op kind %d", op.Kind))
	}
	return sim.Runnable
}
