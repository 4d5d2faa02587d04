package proto

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPtrVecAddRemove(t *testing.T) {
	var v PtrVec
	if !v.Empty() {
		t.Fatal("zero PtrVec not empty")
	}
	v.Add(3)
	v.Add(7)
	v.Add(3) // duplicate
	if v.Len() != 2 || !v.Contains(3) || !v.Contains(7) || v.Contains(5) {
		t.Fatalf("after adds: len=%d", v.Len())
	}
	v.Remove(3)
	if v.Contains(3) || v.Len() != 1 {
		t.Fatal("remove failed")
	}
	v.Remove(99) // absent: no-op
	if v.Len() != 1 {
		t.Fatal("removing absent node changed vector")
	}
}

func TestPtrVecBroadcastOverflow(t *testing.T) {
	var v PtrVec
	for i := 0; i < MaxSharerPointers; i++ {
		v.Add(i)
	}
	if v.Broadcast() {
		t.Fatal("broadcast before overflow")
	}
	v.Add(MaxSharerPointers) // 4th sharer overflows
	if !v.Broadcast() {
		t.Fatal("no broadcast after overflow")
	}
	if !v.Contains(1234) {
		t.Fatal("broadcast vector must conservatively contain every node")
	}
	// Removal in broadcast mode is a no-op.
	v.Remove(0)
	if !v.Contains(0) {
		t.Fatal("remove took effect in broadcast mode")
	}
}

func TestPtrVecTargets(t *testing.T) {
	all := []int{0, 1, 2, 3, 4}
	var v PtrVec
	v.Add(1)
	v.Add(4)
	got := v.Targets(nil, all, 4) // self excluded
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("targets = %v, want [1]", got)
	}
	for i := 0; i < MaxSharerPointers+1; i++ {
		v.Add(i)
	}
	got = v.Targets(nil, all, 2)
	if len(got) != 4 {
		t.Fatalf("broadcast targets = %v, want all but self", got)
	}
	for _, n := range got {
		if n == 2 {
			t.Fatal("broadcast targets include self")
		}
	}
}

// Property: Contains(x) after Add(x) always holds; Len never exceeds
// MaxSharerPointers; once broadcast, always broadcast.
func TestPtrVecProperty(t *testing.T) {
	f := func(ops []int16) bool {
		var v PtrVec
		wasBcast := false
		for _, op := range ops {
			node := int(op&0x3f) >> 1
			if op&1 == 0 {
				v.Add(node)
				if !v.Contains(node) {
					return false
				}
			} else {
				v.Remove(node)
				if !v.Broadcast() && v.Contains(node) {
					return false
				}
			}
			if v.Len() > MaxSharerPointers {
				return false
			}
			if wasBcast && !v.Broadcast() {
				return false
			}
			wasBcast = v.Broadcast()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerCostsScale(t *testing.T) {
	h := AGGCosts().Scale(HardwareScale)
	if h.ReadLat != 28 || h.ReadOcc != 56 {
		t.Fatalf("scaled read = %d/%d, want 28/56", h.ReadLat, h.ReadOcc)
	}
	if h.InvalPerNode != 7 || h.WBOcc != 98 {
		t.Fatalf("scaled inval/wb = %d/%d, want 7/98", h.InvalPerNode, h.WBOcc)
	}
}

func TestDefaultTiming(t *testing.T) {
	tm := DefaultTiming(128)
	if tm.MemBankOcc != 4 {
		t.Fatalf("bank occupancy = %d, want 4 (128B at 32B/cycle)", tm.MemBankOcc)
	}
	if tm.L1Lat != 3 || tm.L2Lat != 6 || tm.MemOnChip != 37 || tm.MemOffChip != 57 {
		t.Fatalf("Table 1 values wrong: %+v", tm)
	}
}

// TestPtrVecLayout pins the 8-byte sharer vector (16-bit pointers) and its
// exactness up to the largest node ID it accepts.
func TestPtrVecLayout(t *testing.T) {
	if n := unsafe.Sizeof(PtrVec{}); n != 8 {
		t.Errorf("PtrVec is %d bytes, want 8", n)
	}
	var v PtrVec
	v.Add(MaxSharerID)
	v.Add(0)
	if !v.Contains(MaxSharerID) || !v.Contains(0) || v.Contains(MaxSharerID-1) || v.Broadcast() {
		t.Fatalf("vector holding {%d, 0} misreports membership", MaxSharerID)
	}
	var buf TargetBuf
	if got := v.Targets(buf[:0], nil, 0); len(got) != 1 || got[0] != MaxSharerID {
		t.Fatalf("Targets = %v, want [%d]", got, MaxSharerID)
	}
}
