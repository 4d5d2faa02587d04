package hashmap

import (
	"math/rand"
	"testing"
)

// testEnt is a directory entry whose template value is recognizable.
type testEnt struct {
	owner int32
	hits  int
}

const (
	testPageBytes = 4096
	testLineBytes = 128
	testLines     = testPageBytes / testLineBytes
)

func newTestPages(t testing.TB, maxPages int) *Pages[int32, testEnt] {
	t.Helper()
	p, err := NewPages[int32](testPageBytes, testLineBytes, maxPages, testEnt{owner: -1})
	if err != nil {
		t.Fatal(err)
	}
	return &p
}

// entry is Touch's entry alone.
func entry(p *Pages[int32, testEnt], addr uint64) *testEnt {
	_, e, _ := p.Touch(addr)
	return e
}

func TestNewPagesValidation(t *testing.T) {
	for _, c := range []struct{ page, line uint64 }{{4096, 0}, {4096, 96}, {3000, 128}, {64, 128}} {
		if _, err := NewPages[int, int](c.page, c.line, 0, 0); err == nil {
			t.Errorf("page %d / line %d accepted", c.page, c.line)
		}
	}
}

// TestPagesAgainstMap drives random line touches, lookups and page releases
// across many pages and cross-checks each against a map[uint64]*E reference
// of the pointers handed out: a touched line keeps its entry (same pointer,
// same value) until its page is released, and a released page comes back
// with template entries.
func TestPagesAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := newTestPages(t, 0)
	ref := map[uint64]*testEnt{}
	refPages := map[uint64]bool{}
	const pages = 300
	for i := 0; i < 200000; i++ {
		page := uint64(rng.Intn(pages))
		line := page*testPageBytes + uint64(rng.Intn(testLines))*testLineBytes
		addr := line + uint64(rng.Intn(testLineBytes))
		switch op := rng.Intn(20); {
		case op < 12:
			hdr, e, fresh := p.Touch(addr)
			if fresh == refPages[page] {
				t.Fatalf("op %d: Touch(%#x) fresh=%v, page touched=%v", i, addr, fresh, refPages[page])
			}
			if fresh {
				if *hdr != 0 {
					t.Fatalf("op %d: fresh page header %d", i, *hdr)
				}
				*hdr = int32(page)
				refPages[page] = true
			}
			if *hdr != int32(page) {
				t.Fatalf("op %d: page %d header %d", i, page, *hdr)
			}
			want, ok := ref[line]
			switch {
			case !ok:
				if *e != (testEnt{owner: -1}) {
					t.Fatalf("op %d: first touch of %#x = %+v, want template", i, line, *e)
				}
				ref[line] = e
			case want != e:
				t.Fatalf("op %d: line %#x moved from %p to %p", i, line, want, e)
			}
			e.hits++
			e.owner = int32(i)
		case op < 18:
			e, ok := p.Get(addr)
			if ok != refPages[page] {
				t.Fatalf("op %d: Get(%#x) ok=%v, page touched=%v", i, addr, ok, refPages[page])
			}
			if want, seen := ref[line]; seen && e != want {
				t.Fatalf("op %d: Get(%#x) = %p, want %p", i, addr, e, want)
			}
		default:
			if got := p.Release(addr); got != refPages[page] {
				t.Fatalf("op %d: Release(%#x) = %v, page touched=%v", i, addr, got, refPages[page])
			}
			delete(refPages, page)
			for l := uint64(0); l < testLines; l++ {
				delete(ref, page*testPageBytes+l*testLineBytes)
			}
		}
		if p.Len() != len(refPages) {
			t.Fatalf("op %d: Len = %d, want %d", i, p.Len(), len(refPages))
		}
	}
	for line, want := range ref {
		if e, ok := p.Get(line); !ok || e != want {
			t.Fatalf("final Get(%#x) = %p,%v want %p", line, e, ok, want)
		}
	}
}

// TestPagesPointerStability checks that entry and header pointers taken early
// still alias the same entries after hundreds of new pages are touched (the
// blocks grow but never move).
func TestPagesPointerStability(t *testing.T) {
	p := newTestPages(t, 0)
	hdr, first, _ := p.Touch(0x80)
	*hdr = 7
	first.hits = 42
	var lines []*testEnt
	for l := uint64(0); l < testLines; l++ {
		lines = append(lines, entry(p, l*testLineBytes))
	}
	for page := uint64(1); page <= 700; page++ {
		e := entry(p, page*testPageBytes+0x100)
		e.hits = int(page)
	}
	h, ents, ok := p.Page(0)
	if !ok || h != hdr || *h != 7 || &ents[1] != first || first.hits != 42 {
		t.Fatalf("page 0 moved: header %p/%d want %p/7, line 1 %p want %p (hits %d)", h, *h, hdr, &ents[1], first, first.hits)
	}
	for l, e := range lines {
		if got := entry(p, uint64(l)*testLineBytes); got != e {
			t.Fatalf("line %d of page 0 moved from %p to %p", l, e, got)
		}
	}
	for page := uint64(1); page <= 700; page++ {
		if e, _ := p.Get(page*testPageBytes + 0x100); e.hits != int(page) {
			t.Fatalf("page %d lost its entry: %+v", page, *e)
		}
	}
}

// TestPagesRange checks that Range visits each line of each touched page
// exactly once, in first-touch order and address order within a page, and
// skips released pages.
func TestPagesRange(t *testing.T) {
	p := newTestPages(t, 0)
	order := []uint64{9, 3, 200, 4, 17, 0, 1000}
	for _, page := range order {
		entry(p, page*testPageBytes+5*testLineBytes)
	}
	p.Release(17 * testPageBytes)
	var want []uint64
	for _, page := range order {
		if page == 17 {
			continue
		}
		for l := uint64(0); l < testLines; l++ {
			want = append(want, page*testPageBytes+l*testLineBytes)
		}
	}
	var got []uint64
	p.Range(func(line uint64, e *testEnt) bool {
		if pe, _ := p.Get(line); pe != e {
			t.Fatalf("Range yielded %p for line %#x, Get says %p", e, line, pe)
		}
		got = append(got, line)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit %d: line %#x, want %#x", i, got[i], want[i])
		}
	}
	n := 0
	p.Range(func(uint64, *testEnt) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range ignored a false return: %d visits", n)
	}
}

// TestPagesMaxPages checks the slot bound: released slots are reused, the
// last block is cut to the bound, and a page beyond it panics.
func TestPagesMaxPages(t *testing.T) {
	const maxPages = 6 // blocks of 4 and then 2 (cut from 8) pages
	p := newTestPages(t, maxPages)
	for page := uint64(0); page < maxPages; page++ {
		entry(p, page*testPageBytes)
	}
	p.Release(2 * testPageBytes)
	_, e, fresh := p.Touch(100 * testPageBytes)
	if !fresh || *e != (testEnt{owner: -1}) {
		t.Fatalf("reused slot not fresh: fresh=%v %+v", fresh, *e)
	}
	entries := 0
	for _, b := range p.blocks {
		entries += len(b.ents)
	}
	if entries != maxPages*testLines {
		t.Fatalf("blocks hold %d entries, want %d", entries, maxPages*testLines)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("touching a page beyond maxPages did not panic")
		}
	}()
	entry(p, 101*testPageBytes)
}

// TestDirectoryZeroAlloc pins steady-state lookups of touched lines at zero
// allocations: Touch and Get are a page probe plus an index.
func TestDirectoryZeroAlloc(t *testing.T) {
	p := newTestPages(t, 0)
	const pages = 512
	for page := uint64(0); page < pages; page++ {
		entry(p, page*testPageBytes)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i = (i + 7919) % (pages * testLines)
		entry(p, i*testLineBytes).hits++
		if _, ok := p.Get(i * testLineBytes); !ok {
			t.Fatal("touched line missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Touch/Get allocate %.1f times per op", allocs)
	}
}
