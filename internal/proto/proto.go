// Package proto holds the protocol machinery shared by the three coherence
// engines (AGG, CC-NUMA, Flat COMA): latency classification for reads, the
// limited-pointer directory sharer vector, the Table 1 timing parameters, the
// Table 2 protocol-handler cost model, and the private L1/L2 cache pair of a
// processor.
package proto

import (
	"fmt"
	"math"

	"pimdsm/internal/sim"
)

// LatClass classifies where a read was satisfied — the categories of
// Figure 7 in the paper.
type LatClass uint8

const (
	// LatL1: hit in the first-level cache.
	LatL1 LatClass = iota
	// LatL2: hit in the second-level cache.
	LatL2
	// LatMem: satisfied by the node's local memory (on- or off-chip DRAM).
	LatMem
	// Lat2Hop: satisfied by a remote home in a two-node-hop transaction.
	Lat2Hop
	// Lat3Hop: satisfied via a third node (dirty or master copy elsewhere).
	Lat3Hop
	// NumLatClasses is the number of classes.
	NumLatClasses
)

// String returns the Figure 7 label for the class.
func (c LatClass) String() string {
	switch c {
	case LatL1:
		return "FLC"
	case LatL2:
		return "SLC"
	case LatMem:
		return "Memory"
	case Lat2Hop:
		return "2Hop"
	case Lat3Hop:
		return "3Hop"
	}
	return fmt.Sprintf("LatClass(%d)", uint8(c))
}

// MaxSharerPointers is the size of the limited-vector directory scheme the
// paper assumes (§2.2.2: "a 3-pointer limited-vector scheme").
const MaxSharerPointers = 3

// MaxSharerID is the largest node ID a PtrVec can record: pointers are 16
// bits wide, which keeps the vector (and every directory entry holding one)
// 8 bytes. Machines with more nodes are rejected when they are sized.
const MaxSharerID = math.MaxInt16

// PtrVec is a limited-pointer sharer vector: up to MaxSharerPointers node
// IDs in [0, MaxSharerID], falling back to broadcast when it overflows. The
// zero value is empty.
type PtrVec struct {
	n     uint8
	bcast bool
	ptr   [MaxSharerPointers]int16
}

// Add records node as a sharer. Adding beyond capacity sets broadcast mode.
func (v *PtrVec) Add(node int) {
	if v.bcast || v.Contains(node) {
		return
	}
	if int(v.n) == len(v.ptr) {
		v.bcast = true
		return
	}
	v.ptr[v.n] = int16(node)
	v.n++
}

// Remove drops node from the vector. In broadcast mode removal is a no-op
// (the hardware no longer knows the precise set).
func (v *PtrVec) Remove(node int) {
	if v.bcast {
		return
	}
	for i := 0; i < int(v.n); i++ {
		if int(v.ptr[i]) == node {
			v.ptr[i] = v.ptr[v.n-1]
			v.n--
			return
		}
	}
}

// Contains reports whether node is a recorded sharer. In broadcast mode every
// node is conservatively a sharer.
func (v *PtrVec) Contains(node int) bool {
	if v.bcast {
		return true
	}
	for i := 0; i < int(v.n); i++ {
		if int(v.ptr[i]) == node {
			return true
		}
	}
	return false
}

// Broadcast reports whether the vector overflowed into broadcast mode.
func (v *PtrVec) Broadcast() bool { return v.bcast }

// Len returns the number of recorded pointers (0 in broadcast mode).
func (v *PtrVec) Len() int { return int(v.n) }

// Empty reports whether no sharer is recorded and broadcast is off.
func (v *PtrVec) Empty() bool { return v.n == 0 && !v.bcast }

// Clear empties the vector.
func (v *PtrVec) Clear() { *v = PtrVec{} }

// Targets appends the invalidation targets to dst and returns it: the
// recorded pointers, or — in broadcast mode — every node in all (excluding
// self), mirroring the broadcast invalidations a limited-vector directory
// must send after overflow.
func (v *PtrVec) Targets(dst []int, all []int, self int) []int {
	if v.bcast {
		for _, n := range all {
			if n != self {
				dst = append(dst, n)
			}
		}
		return dst
	}
	for i := 0; i < int(v.n); i++ {
		if int(v.ptr[i]) != self {
			dst = append(dst, int(v.ptr[i]))
		}
	}
	return dst
}

// TargetBuf is the stack array a caller hands Targets (as buf[:0]): it holds
// the pointers, or a broadcast to up to 64 other nodes, with no heap
// allocation. A per-machine scratch slice would be shared by nested
// protocol paths; a stack array belongs to exactly one call.
type TargetBuf [64]int

// HandlerCosts is the Table 2 protocol-handler cost model, in CPU cycles.
// Latency is the time from handler dispatch until the reply message leaves;
// occupancy is how long the protocol processor stays busy.
type HandlerCosts struct {
	ReadLat, ReadOcc     sim.Time
	ReadExLat, ReadExOcc sim.Time
	InvalPerNode         sim.Time // extra occupancy per invalidation sent
	AckLat, AckOcc       sim.Time
	WBLat, WBOcc         sim.Time
}

// AGGCosts returns Table 2's measured software-handler costs (R10K cycles).
func AGGCosts() HandlerCosts {
	return HandlerCosts{
		ReadLat: 40, ReadOcc: 80,
		ReadExLat: 45, ReadExOcc: 80,
		InvalPerNode: 10,
		AckLat:       40, AckOcc: 40,
		WBLat: 40, WBOcc: 140,
	}
}

// Scale returns the costs multiplied by f. The paper models the NUMA/COMA
// hardware protocol engines at 70% of AGG's software costs (§3).
func (h HandlerCosts) Scale(f float64) HandlerCosts {
	s := func(t sim.Time) sim.Time { return sim.Time(float64(t)*f + 0.5) }
	return HandlerCosts{
		ReadLat: s(h.ReadLat), ReadOcc: s(h.ReadOcc),
		ReadExLat: s(h.ReadExLat), ReadExOcc: s(h.ReadExOcc),
		InvalPerNode: s(h.InvalPerNode),
		AckLat:       s(h.AckLat), AckOcc: s(h.AckOcc),
		WBLat: s(h.WBLat), WBOcc: s(h.WBOcc),
	}
}

// HardwareScale is the paper's hardware-vs-software protocol cost ratio.
const HardwareScale = 0.7

// Timing is the Table 1 latency/bandwidth model, in CPU cycles at 1 GHz.
// All values are uncontended round trips from the processor; contention is
// added by the resource model.
type Timing struct {
	L1Lat      sim.Time // round trip on L1 hit
	L2Lat      sim.Time // round trip on L2 hit (includes L1 miss)
	MemOnChip  sim.Time // round trip to on-chip local DRAM
	MemOffChip sim.Time // round trip to off-chip local DRAM
	// MemBankOcc is how long a line transfer occupies the DRAM interface:
	// line size / 32 B-per-cycle bandwidth.
	MemBankOcc sim.Time
	// DiskLat is the penalty for touching paged-out data (D-node pageout is
	// the paper's safety valve; the exact value only needs to be "much
	// larger than remote memory").
	DiskLat sim.Time
}

// DefaultTiming returns Table 1's values for the given memory line size.
func DefaultTiming(lineBytes uint64) Timing {
	return Timing{
		L1Lat:      3,
		L2Lat:      6,
		MemOnChip:  37,
		MemOffChip: 57,
		MemBankOcc: sim.Time((lineBytes + 31) / 32),
		DiskLat:    20000,
	}
}
