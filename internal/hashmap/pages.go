package hashmap

import (
	"fmt"
	"math/bits"
)

// pagesMinShift sizes the first entry block at 1<<pagesMinShift pages; each
// later block doubles, so a small footprint allocates little and a large one
// allocates a handful of blocks at most twice its size.
const pagesMinShift = 2

// freeSlot marks a released slot's page number; real page numbers are
// addresses shifted right by the page size, so they never reach it.
const freeSlot = ^uint64(0)

// Pages is a dense page-indexed directory: one entry of type E per line of
// every touched page, plus one header of type H per page. A small Map takes a
// page number to its slot; a slot's header and entries live inline in
// blocks of whole pages that are allocated lazily and never moved, so
// *H and *E stay valid while new pages are touched. Released slots are reused
// by later first touches. The zero value is unusable; build one with
// NewPages. It is not safe for concurrent use.
type Pages[H, E any] struct {
	index  Map[int32] // page number -> slot
	blocks []pageBlock[H, E]
	free   []int32 // released slots, reused before new ones
	next   int32   // slots ever handed out

	maxPages  int // slot bound; 0 means unbounded
	lineShift uint
	pageShift uint
	lineMask  uint64 // lines per page - 1
	fresh     E      // value every entry of a newly touched page starts as
}

// pageBlock holds the slots [start, start+len(heads)).
type pageBlock[H, E any] struct {
	heads []pageHead[H]
	ents  []E // len(heads) pages of lineMask+1 entries, in slot order
}

type pageHead[H any] struct {
	page uint64 // page number, or freeSlot
	hdr  H
}

// NewPages builds a directory over pageBytes pages of lineBytes lines (both
// powers of two). maxPages bounds the slots in use at once (0: unbounded);
// fresh is the value each entry of a newly touched page starts as.
func NewPages[H, E any](pageBytes, lineBytes uint64, maxPages int, fresh E) (Pages[H, E], error) {
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 || pageBytes < lineBytes || pageBytes&(pageBytes-1) != 0 {
		return Pages[H, E]{}, fmt.Errorf("hashmap: page size %d and line size %d must be powers of two, page >= line", pageBytes, lineBytes)
	}
	return Pages[H, E]{
		maxPages:  maxPages,
		lineShift: uint(bits.TrailingZeros64(lineBytes)),
		pageShift: uint(bits.TrailingZeros64(pageBytes)),
		lineMask:  pageBytes/lineBytes - 1,
		fresh:     fresh,
	}, nil
}

// Len returns the number of touched (unreleased) pages.
func (p *Pages[H, E]) Len() int { return p.index.Len() }

// locate returns the block and the slot's index within it. Block b holds
// 1<<(pagesMinShift+b) slots starting at (1<<(pagesMinShift+b)) -
// (1<<pagesMinShift), so the block is a leading-zero count away.
func locate(slot int32) (int, int) {
	s := uint32(slot) + 1<<pagesMinShift
	b := bits.Len32(s) - 1 - pagesMinShift
	return b, int(s - 1<<(pagesMinShift+b))
}

func (p *Pages[H, E]) head(slot int32) *pageHead[H] {
	b, i := locate(slot)
	return &p.blocks[b].heads[i]
}

func (p *Pages[H, E]) lines(slot int32) []E {
	b, i := locate(slot)
	n := int(p.lineMask) + 1
	return p.blocks[b].ents[i*n : (i+1)*n : (i+1)*n]
}

// at returns a slot's header and the entry of addr's line in it.
func (p *Pages[H, E]) at(slot int32, addr uint64) (*H, *E) {
	b, i := locate(slot)
	blk := &p.blocks[b]
	return &blk.heads[i].hdr, &blk.ents[i*(int(p.lineMask)+1)+int(addr>>p.lineShift&p.lineMask)]
}

// Touch returns the header of addr's page and the entry of addr's line,
// creating the page on first touch: fresh reports that, and a fresh page's
// header is zero and its entries are the NewPages template. It panics when a
// new page would exceed maxPages.
func (p *Pages[H, E]) Touch(addr uint64) (hdr *H, e *E, fresh bool) {
	page := addr >> p.pageShift
	if slot, ok := p.index.Get(page); ok {
		hdr, e = p.at(slot, addr)
		return hdr, e, false
	}
	slot := p.alloc()
	*p.head(slot) = pageHead[H]{page: page}
	ents := p.lines(slot)
	for i := range ents {
		ents[i] = p.fresh
	}
	p.index.Put(page, slot)
	hdr, e = p.at(slot, addr)
	return hdr, e, true
}

// alloc takes a released slot, or a new one, growing the blocks if needed.
func (p *Pages[H, E]) alloc() int32 {
	if n := len(p.free); n > 0 {
		slot := p.free[n-1]
		p.free = p.free[:n-1]
		return slot
	}
	if p.maxPages > 0 && int(p.next) >= p.maxPages {
		panic(fmt.Sprintf("hashmap: page directory full (%d pages)", p.maxPages))
	}
	slot := p.next
	p.next++
	if b, _ := locate(slot); b == len(p.blocks) {
		n := 1 << (pagesMinShift + b)
		if start := int(slot); p.maxPages > 0 && start+n > p.maxPages {
			n = p.maxPages - start
		}
		p.blocks = append(p.blocks, pageBlock[H, E]{
			heads: make([]pageHead[H], n),
			ents:  make([]E, n*(int(p.lineMask)+1)),
		})
	}
	return slot
}

// Get returns the entry of addr's line and whether its page was touched; it
// never creates a page.
func (p *Pages[H, E]) Get(addr uint64) (*E, bool) {
	slot, ok := p.index.Get(addr >> p.pageShift)
	if !ok {
		return nil, false
	}
	_, e := p.at(slot, addr)
	return e, true
}

// Page returns the header and the line entries (in address order) of addr's
// page, or ok=false if the page is untouched.
func (p *Pages[H, E]) Page(addr uint64) (hdr *H, lines []E, ok bool) {
	slot, ok := p.index.Get(addr >> p.pageShift)
	if !ok {
		return nil, nil, false
	}
	return &p.head(slot).hdr, p.lines(slot), true
}

// Release forgets addr's page and reports whether it was touched. Its slot
// goes to a later first touch, which resets the header and entries; pointers
// into the released page must not be used afterwards.
func (p *Pages[H, E]) Release(addr uint64) bool {
	page := addr >> p.pageShift
	slot, ok := p.index.Get(page)
	if !ok {
		return false
	}
	p.index.Delete(page)
	p.head(slot).page = freeSlot
	p.free = append(p.free, slot)
	return true
}

// Range calls fn for every line of every touched page, in slot order (first
// touch order while nothing is released) and address order within a page,
// until fn returns false. fn may modify entries but must not touch or
// release pages.
func (p *Pages[H, E]) Range(fn func(line uint64, e *E) bool) {
	for slot := int32(0); slot < p.next; slot++ {
		page := p.head(slot).page
		if page == freeSlot {
			continue
		}
		ents := p.lines(slot)
		for i := range ents {
			if !fn(page<<p.pageShift|uint64(i)<<p.lineShift, &ents[i]) {
				return
			}
		}
	}
}
