package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// refFrame is the unpacked frame layout the packed two-word frames replaced:
// one field per fact. refCache keeps it as a reference model of SetAssoc
// (local false) and LocalMemory (local true).
type refFrame struct {
	tag    uint64
	state  State
	lru    uint64
	onChip bool
}

type refCache struct {
	lineBytes uint64
	sets      uint64
	assoc     int
	onWays    int
	local     bool
	frames    []refFrame
	stamp     uint64
}

func newRef(sets uint64, assoc int, lineBytes uint64, local bool, onWays int) *refCache {
	r := &refCache{lineBytes: lineBytes, sets: sets, assoc: assoc, onWays: onWays, local: local,
		frames: make([]refFrame, sets*uint64(assoc))}
	for s := uint64(0); s < sets; s++ {
		for w := 0; w < onWays; w++ {
			r.frames[s*uint64(assoc)+uint64(w)].onChip = true
		}
	}
	return r
}

func (r *refCache) set(addr uint64) []refFrame {
	s := (addr / r.lineBytes) % r.sets
	return r.frames[s*uint64(r.assoc) : (s+1)*uint64(r.assoc)]
}

func (r *refCache) find(addr uint64) *refFrame {
	tag := addr &^ (r.lineBytes - 1)
	set := r.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) promote(set []refFrame, f *refFrame) {
	if !r.local || f.onChip || r.onWays == 0 {
		return
	}
	var lruOn *refFrame
	for i := range set {
		if set[i].onChip && (lruOn == nil || set[i].lru < lruOn.lru) {
			lruOn = &set[i]
		}
	}
	if lruOn == nil {
		return
	}
	lruOn.onChip = false
	f.onChip = true
}

func (r *refCache) access(addr uint64) (State, bool, bool) {
	f := r.find(addr)
	if f == nil {
		return Invalid, false, false
	}
	r.stamp++
	f.lru = r.stamp
	served := f.onChip
	if !served {
		r.promote(r.set(addr), f)
	}
	return f.state, true, served
}

func (r *refCache) lookup(addr uint64) (State, bool, bool) {
	if f := r.find(addr); f != nil {
		return f.state, true, f.onChip
	}
	return Invalid, false, false
}

func (r *refCache) setState(addr uint64, s State) bool {
	f := r.find(addr)
	if f == nil {
		return false
	}
	f.state = s
	return true
}

func (r *refCache) invalidate(addr uint64) State {
	f := r.find(addr)
	if f == nil {
		return Invalid
	}
	s := f.state
	f.state = Invalid
	return s
}

// pick is the victim choice of the unpacked code: the first Invalid frame,
// else lowest rank, ties broken by LRU.
func (r *refCache) pick(set []refFrame, rank func(State) int) int {
	best := -1
	for i := range set {
		if set[i].state == Invalid {
			return i
		}
		if best == -1 {
			best = i
			continue
		}
		if rank != nil {
			ri, rb := rank(set[i].state), rank(set[best].state)
			if ri != rb {
				if ri < rb {
					best = i
				}
				continue
			}
		}
		if set[i].lru < set[best].lru {
			best = i
		}
	}
	return best
}

func (r *refCache) insert(addr uint64, s State, rank func(State) int) Victim {
	set := r.set(addr)
	if f := r.find(addr); f != nil {
		r.stamp++
		f.lru = r.stamp
		f.state = s
		r.promote(set, f)
		return Victim{}
	}
	best := r.pick(set, rank)
	v := Victim{}
	if set[best].state != Invalid {
		v = Victim{Addr: set[best].tag, State: set[best].state}
	}
	r.stamp++
	wasOn := set[best].onChip
	set[best] = refFrame{tag: addr &^ (r.lineBytes - 1), state: s, lru: r.stamp, onChip: wasOn}
	r.promote(set, &set[best])
	return v
}

func (r *refCache) probe(addr uint64, rank func(State) int) Victim {
	if r.find(addr) != nil {
		return Victim{}
	}
	set := r.set(addr)
	best := r.pick(set, rank)
	if set[best].state == Invalid {
		return Victim{}
	}
	return Victim{Addr: set[best].tag, State: set[best].state}
}

type line struct {
	addr   uint64
	state  State
	onChip bool
}

func (r *refCache) lines() []line {
	var out []line
	for _, f := range r.frames {
		if f.state != Invalid {
			out = append(out, line{f.tag, f.state, f.onChip})
		}
	}
	return out
}

// flush reports what Flush's callback sees: address and state, no placement.
func (r *refCache) flush() []line {
	out := r.lines()
	for i := range out {
		out[i].onChip = false
	}
	for i := range r.frames {
		r.frames[i].state = Invalid
	}
	return out
}

// store is what the differential driver needs of a packed cache.
type store interface {
	access(addr uint64) (State, bool, bool)
	lookup(addr uint64) (State, bool, bool)
	insert(addr uint64, s State, rank func(State) int) Victim
	invalidate(addr uint64) State
	setState(addr uint64, s State) bool
	probe(addr uint64, rank func(State) int) Victim
	lines() []line
	flush() []line
}

type setAssocStore struct{ c *SetAssoc }

func (s setAssocStore) access(addr uint64) (State, bool, bool) {
	st, hit := s.c.Access(addr)
	return st, hit, false
}
func (s setAssocStore) lookup(addr uint64) (State, bool, bool) {
	st, hit := s.c.Lookup(addr)
	return st, hit, false
}
func (s setAssocStore) insert(addr uint64, st State, rank func(State) int) Victim {
	return s.c.Insert(addr, st, rank)
}
func (s setAssocStore) invalidate(addr uint64) State         { return s.c.Invalidate(addr) }
func (s setAssocStore) setState(addr uint64, st State) bool  { return s.c.SetState(addr, st) }
func (s setAssocStore) probe(uint64, func(State) int) Victim { panic("SetAssoc has no ProbeVictim") }
func (s setAssocStore) lines() []line {
	var out []line
	s.c.ForEach(func(a uint64, st State) { out = append(out, line{a, st, false}) })
	return out
}
func (s setAssocStore) flush() []line {
	var out []line
	s.c.Flush(func(a uint64, st State) { out = append(out, line{a, st, false}) })
	return out
}

type localStore struct{ m *LocalMemory }

func (s localStore) access(addr uint64) (State, bool, bool) { return s.m.Access(addr) }
func (s localStore) lookup(addr uint64) (State, bool, bool) { return s.m.Lookup(addr) }
func (s localStore) insert(addr uint64, st State, rank func(State) int) Victim {
	return s.m.Insert(addr, st, rank)
}
func (s localStore) invalidate(addr uint64) State        { return s.m.Invalidate(addr) }
func (s localStore) setState(addr uint64, st State) bool { return s.m.SetState(addr, st) }
func (s localStore) probe(addr uint64, rank func(State) int) Victim {
	return s.m.ProbeVictim(addr, rank)
}
func (s localStore) lines() []line {
	var out []line
	s.m.ForEach(func(a uint64, st State, on bool) { out = append(out, line{a, st, on}) })
	return out
}
func (s localStore) flush() []line {
	var out []line
	s.m.Flush(func(a uint64, st State) { out = append(out, line{a, st, false}) })
	return out
}

// TestPackedFramesDifferential drives the packed SetAssoc and LocalMemory
// and the unpacked reference model with the same seeded random operations
// on tiny geometries, where eviction, rank ties and on/off-chip swaps happen
// on nearly every call, and requires identical results throughout.
func TestPackedFramesDifferential(t *testing.T) {
	type geom struct {
		local bool
		sets  uint64
		assoc int
		frac  float64
	}
	var geoms []geom
	for assoc := 1; assoc <= 8; assoc++ {
		for _, sets := range []uint64{1, 2, 4} {
			geoms = append(geoms, geom{false, sets, assoc, 0})
		}
		for _, sets := range []uint64{1, 2, 3, 4} {
			for _, frac := range []float64{0, 0.5, 1} {
				geoms = append(geoms, geom{true, sets, assoc, frac})
			}
		}
	}
	const totalOps = 100_000
	opsPer := totalOps / (2 * len(geoms)) // two line sizes each
	rank := func(s State) int { return [...]int{0, 1, 3, 2}[s] }
	// High bits well above any set index, so a tag compare must use the
	// whole address.
	bases := []uint64{0, 1 << 20, 0xfff0_0000_0000}
	for gi, g := range geoms {
		for _, lineBytes := range []uint64{8, 128} {
			name := fmt.Sprintf("local=%v/sets=%d/ways=%d/on=%v/line=%d", g.local, g.sets, g.assoc, g.frac, lineBytes)
			var got store
			var ref *refCache
			if g.local {
				m := MustNewLocal(g.sets*uint64(g.assoc)*lineBytes, lineBytes, g.assoc, g.frac)
				got, ref = localStore{m}, newRef(g.sets, g.assoc, lineBytes, true, m.onWays)
			} else {
				got, ref = setAssocStore{MustNew(g.sets*uint64(g.assoc)*lineBytes, lineBytes, g.assoc)}, newRef(g.sets, g.assoc, lineBytes, false, 0)
			}
			rng := rand.New(rand.NewPCG(uint64(gi), lineBytes))
			// Twice as many distinct lines as frames keeps sets contended.
			span := 2 * g.sets * uint64(g.assoc)
			for op := 0; op < opsPer; op++ {
				addr := bases[rng.IntN(len(bases))] + rng.Uint64N(span)*lineBytes + rng.Uint64N(lineBytes)
				st := State(1 + rng.IntN(3))
				var rk func(State) int
				if rng.IntN(2) == 0 {
					rk = rank
				}
				fail := func(what string, a, b any) {
					t.Fatalf("%s op %d: %s(%#x) = %v, reference %v", name, op, what, addr, a, b)
				}
				switch k := rng.IntN(16); {
				case k < 5:
					s1, h1, o1 := got.access(addr)
					s2, h2, o2 := ref.access(addr)
					if s1 != s2 || h1 != h2 || o1 != o2 {
						fail("Access", []any{s1, h1, o1}, []any{s2, h2, o2})
					}
				case k < 7:
					s1, h1, o1 := got.lookup(addr)
					s2, h2, o2 := ref.lookup(addr)
					if s1 != s2 || h1 != h2 || o1 != o2 {
						fail("Lookup", []any{s1, h1, o1}, []any{s2, h2, o2})
					}
				case k < 11:
					if v1, v2 := got.insert(addr, st, rk), ref.insert(addr, st, rk); v1 != v2 {
						fail("Insert", v1, v2)
					}
				case k < 12:
					if s1, s2 := got.invalidate(addr), ref.invalidate(addr); s1 != s2 {
						fail("Invalidate", s1, s2)
					}
				case k < 14:
					if rng.IntN(4) == 0 {
						st = Invalid
					}
					if p1, p2 := got.setState(addr, st), ref.setState(addr, st); p1 != p2 {
						fail("SetState", p1, p2)
					}
				case k < 15 && g.local:
					if v1, v2 := got.probe(addr, rk), ref.probe(addr, rk); v1 != v2 {
						fail("ProbeVictim", v1, v2)
					}
				case rng.IntN(200) == 0:
					if l1, l2 := got.flush(), ref.flush(); !slices.Equal(l1, l2) {
						fail("Flush", l1, l2)
					}
				}
				if op%64 == 0 || op == opsPer-1 {
					if l1, l2 := got.lines(), ref.lines(); !slices.Equal(l1, l2) {
						fail("ForEach", l1, l2)
					}
				}
			}
		}
	}
}

// TestLineBelowMinimumRejected: the packed frame keeps state and placement
// in the tag's low three bits, so lines shorter than 8 bytes are refused.
func TestLineBelowMinimumRejected(t *testing.T) {
	if _, err := New(64, 4, 1); err == nil {
		t.Error("New accepted a 4-byte line")
	}
	if _, err := NewLocal(64, 4, 1, 0.5); err == nil {
		t.Error("NewLocal accepted a 4-byte line")
	}
	if _, err := New(64, 8, 1); err != nil {
		t.Errorf("New rejected an 8-byte line: %v", err)
	}
	if _, err := NewLocal(64, 8, 1, 0.5); err != nil {
		t.Errorf("NewLocal rejected an 8-byte line: %v", err)
	}
}

// TestHitZeroAlloc pins the hit paths of both caches at zero allocations.
func TestHitZeroAlloc(t *testing.T) {
	c := MustNew(1<<12, 64, 4)
	c.Insert(0x1000, Shared, nil)
	m := MustNewLocal(1<<12, 128, 4, 0.5)
	m.Insert(0x1000, Dirty, nil)
	m.Insert(0x2000, Shared, nil)
	if n := testing.AllocsPerRun(1000, func() {
		c.Access(0x1000)
		c.Lookup(0x1000)
		c.Insert(0x1000, SharedMaster, nil)
		m.Access(0x1000)
		m.Access(0x2000)
		m.Lookup(0x1000)
		m.Insert(0x2000, Shared, nil)
	}); n != 0 {
		t.Errorf("cache hits allocate %v times per call, want 0", n)
	}
}

// TestFrameLayout pins the two-word frame both caches store.
func TestFrameLayout(t *testing.T) {
	if n := unsafe.Sizeof(frame{}); n != 16 {
		t.Errorf("frame is %d bytes, want 16", n)
	}
}
