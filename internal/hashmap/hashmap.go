// Package hashmap provides the simulator's keyed tables. Map is a
// uint64-keyed open-addressed hash table with Fibonacci hashing and
// backward-shift deletion (no tombstones), so a lookup is a multiply, a shift
// and a short linear scan over two flat arrays. It serves the sparse tables:
// the page table, the AGG page homes and on-disk set, the service cache, and
// each directory's own page index.
//
// Pages is the dense coherence directory of all three machines (the D-node
// Directory array of §2.2.2, the NUMA and COMA home directories). Every
// touched page has an entry for each of its lines, so it keeps the entries
// inline in blocks of whole pages and hashes only the page number: a lookup is
// one probe of a small table plus an index. Blocks are never moved, so the
// protocol code may hold an entry pointer across later page touches.
package hashmap

// fibMul is 2^64 / phi, the classic Fibonacci-hashing multiplier: it spreads
// line addresses (which share low zero bits from alignment) across the high
// bits that index the table.
const fibMul = 0x9E3779B97F4A7C15

// minCap is the smallest table allocated; must be a power of two.
const minCap = 16

// maxLoadNum/maxLoadDen cap the load factor at 13/16 ≈ 0.81 — linear probing
// stays short because Fibonacci hashing randomizes the high bits.
const (
	maxLoadNum = 13
	maxLoadDen = 16
)

// Map is an open-addressed hash table from uint64 keys to values of type V.
// The zero value is an empty map ready for use. It is not safe for concurrent
// use, matching the simulator's single-threaded-per-run discipline.
type Map[V any] struct {
	keys []uint64
	vals []V
	used []bool
	n    int
	// shift turns the 64-bit hash into a table index: idx = hash >> shift.
	shift uint
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return m.n }

func (m *Map[V]) home(k uint64) uint64 { return (k * fibMul) >> m.shift }

// Get returns the value stored for k.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	mask := uint64(len(m.keys) - 1)
	for i := m.home(k); ; i = (i + 1) & mask {
		if !m.used[i] {
			var zero V
			return zero, false
		}
		if m.keys[i] == k {
			return m.vals[i], true
		}
	}
}

// Put stores v for k, replacing any previous value.
func (m *Map[V]) Put(k uint64, v V) {
	if (m.n+1)*maxLoadDen > len(m.keys)*maxLoadNum {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	for i := m.home(k); ; i = (i + 1) & mask {
		if !m.used[i] {
			m.used[i] = true
			m.keys[i] = k
			m.vals[i] = v
			m.n++
			return
		}
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
	}
}

// Delete removes k and reports whether it was present. Deletion shifts the
// following probe run backward instead of leaving a tombstone, so lookup cost
// never degrades with churn.
func (m *Map[V]) Delete(k uint64) bool {
	if m.n == 0 {
		return false
	}
	mask := uint64(len(m.keys) - 1)
	i := m.home(k)
	for {
		if !m.used[i] {
			return false
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	// Backward-shift: any entry later in the probe run that would still be
	// reachable from its home position after moving into the hole does move.
	j := i
	for {
		j = (j + 1) & mask
		if !m.used[j] {
			break
		}
		h := m.home(m.keys[j])
		if ((j - h) & mask) >= ((j - i) & mask) {
			m.keys[i] = m.keys[j]
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	var zero V
	m.used[i] = false
	m.keys[i] = 0
	m.vals[i] = zero
	m.n--
	return true
}

// Range calls fn for every entry until fn returns false. The iteration order
// is the table's probe order: deterministic for a deterministic operation
// history, but otherwise unspecified. fn must not add or delete entries.
func (m *Map[V]) Range(fn func(k uint64, v V) bool) {
	for i := range m.keys {
		if m.used[i] && !fn(m.keys[i], m.vals[i]) {
			return
		}
	}
}

// Reset drops every entry but keeps the allocated table for reuse.
func (m *Map[V]) Reset() {
	var zero V
	for i := range m.keys {
		if m.used[i] {
			m.used[i] = false
			m.keys[i] = 0
			m.vals[i] = zero
		}
	}
	m.n = 0
}

func (m *Map[V]) grow() {
	newCap := minCap
	if len(m.keys) > 0 {
		newCap = len(m.keys) * 2
	}
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	m.keys = make([]uint64, newCap)
	m.vals = make([]V, newCap)
	m.used = make([]bool, newCap)
	m.n = 0
	m.shift = 64
	for c := newCap; c > 1; c >>= 1 {
		m.shift--
	}
	for i := range oldKeys {
		if oldUsed[i] {
			m.reinsert(oldKeys[i], oldVals[i])
		}
	}
}

// reinsert is Put without the growth check, for rehashing.
func (m *Map[V]) reinsert(k uint64, v V) {
	mask := uint64(len(m.keys) - 1)
	for i := m.home(k); ; i = (i + 1) & mask {
		if !m.used[i] {
			m.used[i] = true
			m.keys[i] = k
			m.vals[i] = v
			m.n++
			return
		}
	}
}

// Set is a uint64 set over the same open-addressed table.
type Set struct {
	m Map[struct{}]
}

// Len returns the number of members.
func (s *Set) Len() int { return s.m.Len() }

// Has reports membership.
func (s *Set) Has(k uint64) bool { _, ok := s.m.Get(k); return ok }

// Add inserts k.
func (s *Set) Add(k uint64) { s.m.Put(k, struct{}{}) }

// Remove deletes k and reports whether it was present.
func (s *Set) Remove(k uint64) bool { return s.m.Delete(k) }
