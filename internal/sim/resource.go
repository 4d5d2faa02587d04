package sim

import "fmt"

// Resource models a serially-reusable hardware resource (a network link, a
// memory bank, a D-node protocol processor). It keeps a calendar of busy
// intervals: a request arriving at time t is served in the earliest gap at
// or after t that fits its occupancy. Because simulated threads run ahead of
// one another, requests do not arrive in time order — a request with an
// earlier timestamp must be allowed to backfill a gap before reservations
// made further in the future, otherwise laggard threads would queue behind
// resources that are physically idle.
//
// The calendar is exact. Its memory is bounded by a floor (SetFloor): a
// low watermark that every later Acquire and Block arrives at or above and
// that never decreases — the Scheduler's Floor, the clock of the earliest
// runnable thread. A placement at now ≥ floor only examines intervals that
// end after now, and a new reservation starting at or after the floor can
// only abut, never overlap, an interval that ends at or before it, so such
// intervals can no longer affect any start time, QueueDepth at or above the
// floor, or FreeAt once the tail is kept. When an insertion would otherwise
// grow the calendar, they are retired by copying the live intervals down in
// place, so a steady-state calendar allocates nothing. An arrival below the
// floor would break that argument and panics. Without a floor every
// interval is kept: still exact, just unbounded.
type Resource struct {
	iv    []interval // busy intervals: sorted, disjoint, non-adjacent
	floor *Time      // low watermark of future arrivals; nil keeps everything

	// Accounting.
	busy     Time // total cycles the resource was held
	acquires uint64
	waited   Time // total cycles requesters waited before service
}

type interval struct{ s, e Time }

// SetFloor bounds the calendar by the monotone low watermark *f (see
// Resource). Every later Acquire and Block must arrive at or above *f.
func (r *Resource) SetFloor(f *Time) { r.floor = f }

// SetFloors sets the floor f on every resource in each of sets.
func SetFloors(f *Time, sets ...[]Resource) {
	for _, rs := range sets {
		for i := range rs {
			rs[i].SetFloor(f)
		}
	}
}

// Acquire requests the resource at time now for hold cycles and returns the
// service start time (≥ now): the beginning of the earliest gap of length
// hold at or after now.
//
// Placement and reservation are fused into one pass: the gap search already
// establishes the insertion index, and the binary search is hand-rolled
// because this is the hottest loop in a full simulation (every cache miss
// crosses several Resources) — sort.Search's callback indirection is
// measurable here.
func (r *Resource) Acquire(now, hold Time) (start Time) {
	r.checkFloor(now)
	r.acquires++
	r.busy += hold
	n := len(r.iv)
	if n == 0 || now >= r.iv[n-1].e {
		// Fast path: arrival at or after the last reservation — service is
		// immediate and the reservation extends or follows the calendar tail.
		if hold > 0 {
			if n > 0 && r.iv[n-1].e == now {
				r.iv[n-1].e = now + hold
			} else {
				r.retire()
				r.iv = append(r.iv, interval{now, now + hold})
			}
		}
		return now
	}
	// Walk forward from the first interval ending after now to the earliest
	// gap of length hold. On exit every interval below i ends at or before
	// start, and interval i (if any) begins at or after start+hold, so i is
	// also the insertion index.
	start = now
	i := r.firstEndAfter(now)
	for ; i < n; i++ {
		if r.iv[i].s >= start+hold {
			break
		}
		if r.iv[i].e > start {
			start = r.iv[i].e
		}
	}
	r.waited += start - now
	if hold == 0 {
		return start
	}
	e := start + hold
	prevAbuts := i > 0 && r.iv[i-1].e == start
	nextAbuts := i < n && r.iv[i].s == e
	switch {
	case prevAbuts && nextAbuts:
		r.iv[i-1].e = r.iv[i].e
		r.iv = append(r.iv[:i], r.iv[i+1:]...)
	case prevAbuts:
		r.iv[i-1].e = e
	case nextAbuts:
		r.iv[i].s = start
	default:
		// Every retired interval ends at or before the floor ≤ now, below
		// the first interval ending after now, so it sits below i.
		i -= r.retire()
		r.iv = append(r.iv, interval{})
		copy(r.iv[i+1:], r.iv[i:])
		r.iv[i] = interval{start, e}
	}
	return start
}

// Block marks the resource busy over [from, to), merging with and absorbing
// any existing reservations it overlaps. Used when an operation's duration
// (e.g. an OS pageout on a D-node) is only known after its component costs
// are computed.
func (r *Resource) Block(from, to Time) {
	if to <= from {
		return
	}
	r.checkFloor(from)
	r.busy += to - from
	// First interval ending at or after from: one that abuts from merges.
	lo := 0
	if from > 0 {
		lo = r.firstEndAfter(from - 1)
	}
	hi := lo
	for hi < len(r.iv) && r.iv[hi].s <= to {
		if r.iv[hi].s < from {
			from = r.iv[hi].s
		}
		if r.iv[hi].e > to {
			to = r.iv[hi].e
		}
		hi++
	}
	if lo == hi {
		// Nothing overlaps or abuts, so interval lo (if any) ends after
		// to > from ≥ floor and every retired interval sits below it.
		lo -= r.retire()
		r.iv = append(r.iv, interval{})
		copy(r.iv[lo+1:], r.iv[lo:])
		r.iv[lo] = interval{from, to}
		return
	}
	r.iv[lo] = interval{from, to}
	r.iv = append(r.iv[:lo+1], r.iv[hi:]...)
}

// checkFloor panics on an arrival below the floor: a placement there could
// need an interval that has already been retired. The formatting lives in
// belowFloor so that this guard inlines into every Acquire.
func (r *Resource) checkFloor(at Time) {
	if r.floor != nil && at < *r.floor {
		belowFloor(at, *r.floor)
	}
}

//go:noinline
func belowFloor(at, floor Time) {
	panic(fmt.Sprintf("sim: resource request at %d below floor %d", at, floor))
}

// firstEndAfter returns the index of the first interval ending after t
// (len(iv) if none).
func (r *Resource) firstEndAfter(t Time) int {
	lo, hi := 0, len(r.iv)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.iv[mid].e > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// retire is called before an insertion. When the calendar is at capacity it
// drops the leading intervals that end at or before the floor, keeping the
// tail (FreeAt reports its end), and returns how many it dropped. It only
// retires when that frees at least a quarter of the calendar, so the copy
// is amortized O(1) per insertion; otherwise append grows the slice.
func (r *Resource) retire() int {
	n := len(r.iv)
	if n < cap(r.iv) || r.floor == nil {
		return 0
	}
	k := min(r.firstEndAfter(*r.floor), n-1)
	if k <= 0 || k < n/4 {
		return 0
	}
	r.iv = r.iv[:copy(r.iv, r.iv[k:])]
	return k
}

// QueueDepth returns the number of calendar busy intervals that have not
// fully drained at time at — a proxy for how much queued work remains.
// Abutting reservations merge into one interval, so back-to-back traffic
// counts as a single pending episode. It is a measurement hook for
// profiling and never mutates the calendar; with a floor it is exact for
// at ≥ floor.
func (r *Resource) QueueDepth(at Time) int {
	return len(r.iv) - r.firstEndAfter(at)
}

// FreeAt returns the end of the last reservation (0 if never used).
func (r *Resource) FreeAt() Time {
	if len(r.iv) == 0 {
		return 0
	}
	return r.iv[len(r.iv)-1].e
}

// Utilization returns total held cycles, number of acquisitions, and total
// queueing delay imposed on requesters.
func (r *Resource) Utilization() (busy Time, acquires uint64, waited Time) {
	return r.busy, r.acquires, r.waited
}
