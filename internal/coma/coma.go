// Package coma implements the Flat COMA baseline of the paper's evaluation
// (§3): every node's local DRAM is an attraction memory (a tagged
// set-associative cache of memory lines, like AGG's P-node memories), the
// directory home of a line is fixed by first touch, but the data itself
// migrates to wherever it is used. Exactly one copy of each line is the
// master; replacement prefers invalid and non-master lines, and a displaced
// master is *injected* into another node's attraction memory using Joe and
// Hennessy's method (relocate to the provider, cascading onwards if the
// provider's set is full of masters) — the protocol complication and memory
// pollution AGG's home-always-accepts design avoids.
package coma

import (
	"fmt"

	"pimdsm/internal/cache"
	"pimdsm/internal/core"
	"pimdsm/internal/hashmap"
	"pimdsm/internal/mesh"
	"pimdsm/internal/obs"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

type dirState uint8

const (
	dirUnfetched dirState = iota // zero-fill on first touch
	dirShared                    // master plus possibly non-master copies
	dirDirty                     // single writable master copy
	dirSwapped                   // overflow: line swapped to disk
)

type dirEntry struct {
	state   dirState
	master  int32
	sharers proto.PtrVec
}

// Config describes a Flat COMA machine.
type Config struct {
	Nodes int

	LineBytes uint64
	PageBytes uint64

	// AMBytes is each node's attraction-memory capacity, organized as an
	// AMAssoc-way cache with OnChipFraction on chip.
	AMBytes        uint64
	AMAssoc        int
	OnChipFraction float64

	Caches proto.CacheGeom
	Timing proto.Timing
	Costs  proto.HandlerCosts
	Mesh   mesh.Config
}

// DefaultConfig returns the Table 1 COMA configuration (double-width links,
// hardware protocol costs, 4-way attraction memories).
func DefaultConfig(nodes int, amBytes uint64, l1, l2 uint64) Config {
	mc := mesh.DefaultConfig(0, 0)
	mc.BytesPerCycle *= 2
	return Config{
		Nodes:          nodes,
		LineBytes:      128,
		PageBytes:      4096,
		AMBytes:        amBytes,
		AMAssoc:        4,
		OnChipFraction: 0.5,
		Caches:         proto.DefaultCacheGeom(l1, l2),
		Timing:         proto.DefaultTiming(128),
		Costs:          proto.AGGCosts().Scale(proto.HardwareScale),
		Mesh:           mc,
	}
}

// Machine is the Flat COMA engine.
type Machine struct {
	core.Base
	cfg Config

	caches []*proto.CacheSet
	am     []*cache.LocalMemory
	hproc  []sim.Resource
	bank   []sim.Resource
	disk   []sim.Resource

	// dir is the open-addressed flat directory (line -> entry); entries come
	// from a slab pool, so directory growth does not churn the allocator.
	dir      hashmap.Map[*dirEntry]
	dirPool  hashmap.Pool[dirEntry]
	homes    hashmap.Map[int] // page -> directory home (first touch)
	provider hashmap.Map[int] // line -> node that last supplied it (injection target)

	allNodes []int
}

// New builds a COMA machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("coma: need at least one node")
	}
	m := &Machine{cfg: cfg}
	if err := m.Init("coma", cfg.Nodes, cfg.LineBytes, cfg.Mesh, m.access, m.auditAccess); err != nil {
		return nil, err
	}
	m.caches = make([]*proto.CacheSet, cfg.Nodes)
	m.am = make([]*cache.LocalMemory, cfg.Nodes)
	m.hproc = make([]sim.Resource, cfg.Nodes)
	m.bank = make([]sim.Resource, cfg.Nodes)
	m.disk = make([]sim.Resource, cfg.Nodes)
	for i := range m.caches {
		cs, err := proto.NewCacheSet(cfg.Caches, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		m.caches[i] = cs
		am, err := cache.NewLocal(cfg.AMBytes, cfg.LineBytes, cfg.AMAssoc, cfg.OnChipFraction)
		if err != nil {
			return nil, err
		}
		m.am[i] = am
	}
	m.allNodes = make([]int, cfg.Nodes)
	for i := range m.allNodes {
		m.allNodes[i] = i
	}
	// The home engines and paging devices are profiled; attraction-memory
	// banks are not (they mostly serve the local CPU).
	m.Resources(m.hproc, true, obs.ResProc, 0)
	m.Resources(m.disk, true, obs.ResDisk, 0)
	m.Resources(m.bank, false, 0, 0)
	return m, nil
}

// rank implements the paper's COMA replacement policy: invalid (handled by
// the cache) and non-master lines are replaced first.
func rank(s cache.State) int {
	if s == cache.Shared {
		return 0
	}
	return 1
}

// auditAccess checks the flat-directory invariants for the accessed line:
// exactly one master whose attraction memory really holds the line in the
// owning state, membership of the master in the sharer vector, and no
// residual master once a line is swapped out.
func (m *Machine) auditAccess(addr uint64) {
	line := m.AlignLine(addr)
	e, ok := m.dir.Get(line)
	if !ok {
		m.AuditFail("line %#x: no directory entry after access", line)
		return
	}
	switch e.state {
	case dirUnfetched, dirSwapped:
		if e.master != -1 {
			m.AuditFail("line %#x in state %d retains master %d", line, e.state, e.master)
		}
	case dirShared, dirDirty:
		if e.master < 0 || int(e.master) >= m.cfg.Nodes {
			m.AuditFail("line %#x has invalid master %d", line, e.master)
			return
		}
		want := cache.SharedMaster
		if e.state == dirDirty {
			want = cache.Dirty
		}
		if st, hit, _ := m.am[e.master].Lookup(line); !hit || st != want {
			m.AuditFail("line %#x: master %d holds %v (hit=%v), want %v", line, e.master, st, hit, want)
		}
		if !e.sharers.Contains(int(e.master)) {
			m.AuditFail("line %#x: master %d missing from sharer vector", line, e.master)
		}
	default:
		m.AuditFail("line %#x in unknown directory state %d", line, e.state)
	}
}

// AMOf exposes a node's attraction memory for tests.
func (m *Machine) AMOf(n int) *cache.LocalMemory { return m.am[n] }

func (m *Machine) pageOf(addr uint64) uint64 { return addr &^ (m.cfg.PageBytes - 1) }

func (m *Machine) homeFor(p int, addr uint64) int {
	page := m.pageOf(addr)
	h, ok := m.homes.Get(page)
	if !ok {
		h = p
		m.homes.Put(page, h)
		m.St.FirstTouches++
	}
	return h
}

func (m *Machine) entry(line uint64) *dirEntry {
	e, ok := m.dir.Get(line)
	if !ok {
		e = m.dirPool.Get()
		e.master = -1
		m.dir.Put(line, e)
	}
	return e
}

// hopClass classifies a transaction by distinct node hops: requester->home->
// supplier->requester collapses when roles coincide.
func hopClass(p, home, supplier int) proto.LatClass {
	if home == p && supplier == p {
		return proto.LatMem
	}
	if home == p || supplier == home {
		return proto.Lat2Hop
	}
	return proto.Lat3Hop
}

// access services a load or store by node p at time now (Base.Access wraps
// it with the instrumentation).
func (m *Machine) access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass) {
	if hit, class, _ := m.caches[p].Lookup(addr, write); hit {
		lat := m.cfg.Timing.L1Lat
		if class == proto.LatL2 {
			lat = m.cfg.Timing.L2Lat
		}
		return now + lat, class
	}

	// Attraction memory.
	line := m.AlignLine(addr)
	st, hit, onChip := m.am[p].Access(addr)
	bankStart := m.bank[p].Acquire(now, m.cfg.Timing.MemBankOcc)
	memLat := m.cfg.Timing.MemOffChip
	if onChip || !hit {
		memLat = m.cfg.Timing.MemOnChip
	}
	memDone := bankStart + memLat
	if hit && (!write || st == cache.Dirty) {
		m.caches[p].Fill(addr, st == cache.Dirty)
		return memDone, proto.LatMem
	}

	home := m.homeFor(p, addr)
	e := m.entry(line)
	if write {
		return m.writeMiss(memDone, p, home, addr, line, e, hit)
	}
	return m.readMiss(memDone, p, home, addr, line, e)
}

// dirAt charges the directory handler at the home: a network message when
// the home is remote, just handler occupancy when it is on chip.
func (m *Machine) dirAt(t sim.Time, p, home int, occ sim.Time) sim.Time {
	if home != p {
		t = m.Net.Send(t, p, home, m.Net.ControlBytes())
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseNetRequest, t)
		}
	}
	return m.hproc[home].Acquire(t, occ)
}

func (m *Machine) readMiss(reqT sim.Time, p, home int, addr, line uint64, e *dirEntry) (sim.Time, proto.LatClass) {
	data := m.Net.DataBytes(m.cfg.LineBytes)
	ctrl := m.Net.ControlBytes()
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseIssue, reqT)
	}
	hs := m.dirAt(reqT, p, home, m.cfg.Costs.ReadOcc)
	m.Prof.Node(home, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadOcc)

	var done sim.Time
	supplier := home
	fillState := cache.Shared

	switch e.state {
	case dirUnfetched:
		// Zero-fill from the home's memory controller; the first toucher
		// becomes the master.
		m.bank[home].Acquire(hs, m.cfg.Timing.MemBankOcc)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadLat)
		}
		done = m.Net.Send(hs+m.cfg.Costs.ReadLat, home, p, data)
		e.state = dirShared
		e.master = int32(p)
		e.sharers.Add(p)
		fillState = cache.SharedMaster
	case dirSwapped:
		// The line was swapped out after an injection overflow.
		ds := m.disk[home].Acquire(hs, m.cfg.Timing.DiskLat)
		m.Prof.Node(home, obs.ResDisk, obs.HCPageout, m.cfg.Timing.DiskLat)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, ds+m.cfg.Timing.DiskLat)
		}
		done = m.Net.Send(ds+m.cfg.Timing.DiskLat, home, p, data)
		m.St.DiskFaults++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvDiskFault, ds, 0, int32(home), line, 0)
		}
		e.state = dirShared
		e.master = int32(p)
		e.sharers.Add(p)
		fillState = cache.SharedMaster
	default:
		q := int(e.master)
		if q == p {
			panic("coma: read miss by the master holder")
		}
		supplier = q
		var at sim.Time
		if q == home {
			at = hs
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseDirOcc, hs)
			}
		} else {
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadLat)
			}
			at = m.Net.Send(hs+m.cfg.Costs.ReadLat, home, q, ctrl)
		}
		qs := m.bank[q].Acquire(at, m.cfg.Timing.MemBankOcc)
		sendT := qs + m.amLat(q, line)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseOwnerFetch, sendT)
		}
		done = m.Net.Send(sendT, q, p, data)
		if e.state == dirDirty {
			// Master downgrades but keeps mastership (flat COMA: no copy
			// goes back to the home).
			m.am[q].SetState(line, cache.SharedMaster)
			m.caches[q].DowngradeMemLine(line)
			e.state = dirShared
		}
		e.sharers.Add(p)
		fillState = cache.Shared
	}
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseNetReply, done)
	}
	class := hopClass(p, home, supplier)
	m.fill(done, p, addr, fillState, false, supplier)
	return done, class
}

func (m *Machine) writeMiss(reqT sim.Time, p, home int, addr, line uint64, e *dirEntry, upgrade bool) (sim.Time, proto.LatClass) {
	data := m.Net.DataBytes(m.cfg.LineBytes)
	ctrl := m.Net.ControlBytes()

	targets := e.sharers.Targets(nil, m.allNodes, p)
	occ := m.cfg.Costs.ReadExOcc + m.cfg.Costs.InvalPerNode*sim.Time(len(targets))
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseIssue, reqT)
	}
	hs := m.dirAt(reqT, p, home, occ)
	m.Prof.Node(home, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadExOcc)
	m.Prof.Node(home, obs.ResProc, obs.HCInval, occ-m.cfg.Costs.ReadExOcc)
	replyT := hs + m.cfg.Costs.ReadExLat

	var done sim.Time
	supplier := home

	switch {
	case e.state == dirUnfetched:
		m.bank[home].Acquire(hs, m.cfg.Timing.MemBankOcc)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, replyT)
		}
		done = m.Net.Send(replyT, home, p, data)
	case e.state == dirSwapped:
		ds := m.disk[home].Acquire(hs, m.cfg.Timing.DiskLat)
		m.Prof.Node(home, obs.ResDisk, obs.HCPageout, m.cfg.Timing.DiskLat)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, ds+m.cfg.Timing.DiskLat)
		}
		done = m.Net.Send(ds+m.cfg.Timing.DiskLat, home, p, data)
		m.St.DiskFaults++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvDiskFault, ds, 0, int32(home), line, 0)
		}
	case upgrade:
		// p holds a readable (non-master) copy; ownership grant only.
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, replyT)
		}
		done = m.Net.Send(replyT, home, p, ctrl)
		m.St.Upgrades++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvUpgrade, replyT, 0, int32(p), line, 0)
		}
	default:
		q := int(e.master)
		if q == p {
			panic("coma: write miss by the master holder")
		}
		supplier = q
		var at sim.Time
		if q == home {
			at = hs
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseDirOcc, hs)
			}
		} else {
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseDirOcc, replyT)
			}
			at = m.Net.Send(replyT, home, q, ctrl)
		}
		qs := m.bank[q].Acquire(at, m.cfg.Timing.MemBankOcc)
		sendT := qs + m.amLat(q, line)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseOwnerFetch, sendT)
		}
		done = m.Net.Send(sendT, q, p, data)
	}
	// The data/grant reply ends here; the invalidation-ack collection below
	// only extends done, and that tail retires the span.
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseNetReply, done)
	}

	// Invalidate every other copy; acks race the data to the requester.
	for _, q := range targets {
		iv := m.Net.Send(replyT, home, q, ctrl)
		m.am[q].Invalidate(line)
		m.caches[q].InvalidateMemLine(line)
		m.St.Invalidations++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvInval, iv, 0, int32(q), line, 0)
		}
		if ack := m.Net.Send(iv, q, p, ctrl); ack > done {
			done = ack
		}
	}

	class := hopClass(p, home, supplier)
	e.state = dirDirty
	e.master = int32(p)
	e.sharers.Clear()
	e.sharers.Add(p)
	if upgrade {
		if !m.am[p].SetState(line, cache.Dirty) {
			panic("coma: upgrade of a line absent from the attraction memory")
		}
		m.caches[p].Fill(addr, true)
	} else {
		m.fill(done, p, addr, cache.Dirty, true, supplier)
	}
	return done, class
}

// amLat is node q's attraction-memory latency for a line it holds.
func (m *Machine) amLat(q int, line uint64) sim.Time {
	_, hit, onChip := m.am[q].Lookup(line)
	if hit && onChip {
		return m.cfg.Timing.MemOnChip
	}
	return m.cfg.Timing.MemOffChip
}

// fill inserts a fetched line into p's attraction memory and caches.
// Displaced non-master shared lines are dropped silently; a displaced master
// must be injected into another attraction memory.
func (m *Machine) fill(when sim.Time, p int, addr uint64, st cache.State, writable bool, supplier int) {
	line := m.AlignLine(addr)
	m.provider.Put(line, supplier)
	v := m.am[p].Insert(line, st, rank)
	m.caches[p].Fill(addr, writable)
	if !v.Valid() {
		return
	}
	m.caches[p].InvalidateMemLine(v.Addr)
	if v.State.Owned() {
		m.inject(when, p, v.Addr, v.State)
	}
	// Non-master shared victims vanish silently (stale sharer pointers are
	// harmless: later invalidations to them are no-ops).
}

// inject relocates a displaced master line (Joe & Hennessy): first to the
// node that provided the line whose arrival caused the displacement, then
// cascading node to node while the candidate sets are full of other masters.
// If the cascade visits every node without finding room (with pressure below
// 100% space exists somewhere, so this is a true last resort) the line is
// swapped out to disk at its home — COMA's overflow safety valve.
func (m *Machine) inject(t sim.Time, from int, line uint64, st cache.State) {
	e := m.entry(line)
	if int(e.master) != from {
		panic(fmt.Sprintf("coma: injecting %#x from %d but master is %d", line, from, e.master))
	}
	data := m.Net.DataBytes(m.cfg.LineBytes)
	target, _ := m.provider.Get(line)
	if target == from || target < 0 || target >= m.cfg.Nodes {
		target = (from + 1) % m.cfg.Nodes
	}
	cur := from
	for hop := 0; hop < m.cfg.Nodes; hop++ {
		arrive := m.Net.Send(t, cur, target, data)
		hs := m.hproc[target].Acquire(arrive, m.cfg.Costs.WBOcc)
		m.Prof.Node(target, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.WBOcc)
		m.bank[target].Acquire(hs, m.cfg.Timing.MemBankOcc)
		v := m.am[target].ProbeVictim(line, rank)
		if !v.State.Owned() {
			m.am[target].Insert(line, st, rank)
			if v.Valid() {
				m.caches[target].InvalidateMemLine(v.Addr)
			}
			e.master = int32(target)
			e.sharers.Remove(from)
			e.sharers.Add(target)
			m.St.Injections++
			m.St.InjectionHops += uint64(hop + 1)
			if m.Trace.On() {
				m.Trace.Emit(obs.EvInject, hs, 0, int32(target), line, uint64(hop+1))
			}
			return
		}
		// This set is all masters: pass the line on.
		t = hs
		cur = target
		target = (target + 1) % m.cfg.Nodes
		if target == from {
			target = (target + 1) % m.cfg.Nodes
		}
	}
	// Overflow: swap to disk at the home, invalidating the straggler
	// non-master copies so no stale data survives.
	home := m.homeFor(from, line)
	arrive := m.Net.Send(t, cur, home, data)
	hs := m.hproc[home].Acquire(arrive, m.cfg.Costs.WBOcc)
	m.Prof.Node(home, obs.ResProc, obs.HCPageout, m.cfg.Costs.WBOcc)
	m.disk[home].Acquire(hs, m.cfg.Timing.DiskLat)
	m.Prof.Node(home, obs.ResDisk, obs.HCPageout, m.cfg.Timing.DiskLat)
	for _, q := range e.sharers.Targets(nil, m.allNodes, from) {
		iv := m.Net.Send(hs, home, q, m.Net.ControlBytes())
		m.am[q].Invalidate(line)
		m.caches[q].InvalidateMemLine(line)
		m.St.Invalidations++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvInval, iv, 0, int32(q), line, 0)
		}
	}
	e.state = dirSwapped
	e.master = -1
	e.sharers.Clear()
	m.St.Overflows++
	if m.Trace.On() {
		m.Trace.Emit(obs.EvOverflow, hs, 0, int32(home), line, 0)
	}
}
