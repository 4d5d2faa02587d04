// Package numa implements the CC-NUMA baseline of the paper's evaluation
// (§3): each node has the same PIM processor chip as AGG but with the
// directory controller on chip, plain (untagged) local memory holding the
// pages placed there by first touch, and only the SRAM caches (L1/L2) for
// remote data. At the home node the directory access is overlapped with the
// memory access, so a locally-satisfied transaction pays no directory
// latency. The hardware protocol engine runs at 70% of AGG's software
// handler costs.
package numa

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

// DirState is the home directory state of a memory line.
type dirState uint8

const (
	dirHome dirState = iota // no cached copies recorded
	dirShared
	dirDirty
)

type dirEntry struct {
	state   dirState
	owner   int32 // when dirDirty
	sharers proto.PtrVec
}

// Config describes a CC-NUMA machine.
type Config struct {
	Nodes int

	LineBytes uint64
	PageBytes uint64

	// MemBytes is each node's local DRAM; OnChipBytes of it is on chip and
	// is managed as a hardware cache of the node's own pages (the [18]
	// scheme), determining the 37- vs 57-cycle local latency.
	MemBytes    uint64
	OnChipBytes uint64

	Caches proto.CacheGeom
	Timing proto.Timing
	Costs  proto.HandlerCosts
	Mesh   mesh.Config
}

// DefaultConfig returns the Table 1 NUMA configuration: double-width links
// (same bisection bandwidth as a 1/1 AGG with twice the nodes) and hardware
// protocol costs.
func DefaultConfig(nodes int, memBytes uint64, l1, l2 uint64) Config {
	mc := mesh.DefaultConfig(0, 0)
	mc.BytesPerCycle *= 2
	return Config{
		Nodes:       nodes,
		LineBytes:   128,
		PageBytes:   4096,
		MemBytes:    memBytes,
		OnChipBytes: memBytes / 2,
		Caches:      proto.DefaultCacheGeom(l1, l2),
		Timing:      proto.DefaultTiming(128),
		Costs:       proto.AGGCosts().Scale(proto.HardwareScale),
		Mesh:        mc,
	}
}

// Machine is the CC-NUMA engine.
type Machine struct {
	core.Base
	cfg Config

	caches []*proto.CacheSet
	onchip []*cache.SetAssoc // presence tracker: which local lines are on chip
	hproc  []sim.Resource    // on-chip directory/protocol engine
	bank   []sim.Resource

	// dir is the open-addressed home directory (line -> entry); entries come
	// from a slab pool, so directory growth does not churn the allocator.
	dir     hashmap.Map[*dirEntry]
	dirPool hashmap.Pool[dirEntry]
	homes   hashmap.Map[int] // page -> home node (first touch)

	allNodes []int
}

// New builds a NUMA machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("numa: need at least one node")
	}
	m := &Machine{cfg: cfg}
	if err := m.Init("numa", cfg.Nodes, cfg.LineBytes, cfg.Mesh, m.access, m.auditAccess); err != nil {
		return nil, err
	}
	m.caches = make([]*proto.CacheSet, cfg.Nodes)
	m.onchip = make([]*cache.SetAssoc, cfg.Nodes)
	m.hproc = make([]sim.Resource, cfg.Nodes)
	m.bank = make([]sim.Resource, cfg.Nodes)
	for i := range m.caches {
		cs, err := proto.NewCacheSet(cfg.Caches, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		m.caches[i] = cs
		oc, err := cache.New(cfg.OnChipBytes, cfg.LineBytes, 4)
		if err != nil {
			return nil, err
		}
		m.onchip[i] = oc
	}
	m.allNodes = make([]int, cfg.Nodes)
	for i := range m.allNodes {
		m.allNodes[i] = i
	}
	// The home engine's occupancy is profiled; local memory banks are not
	// (they mostly serve the local CPU, not protocol duty).
	m.Resources(m.hproc, true, obs.ResProc, 0)
	m.Resources(m.bank, false, 0, 0)
	return m, nil
}

// auditAccess checks the accessed line's home directory entry against the
// protocol invariants. The dirty owner's caches are deliberately not
// cross-checked: after a partial L2 eviction the home frame is
// authoritative while the directory still records an owner (the degenerate
// case remoteRead folds into clean-at-home).
func (m *Machine) auditAccess(addr uint64) {
	line := m.AlignLine(addr)
	e, ok := m.dir.Get(line)
	if !ok {
		m.AuditFail("line %#x: no directory entry after access", line)
		return
	}
	switch e.state {
	case dirDirty:
		if e.owner < 0 || int(e.owner) >= m.cfg.Nodes {
			m.AuditFail("dirty line %#x has invalid owner %d", line, e.owner)
		}
		if !e.sharers.Empty() {
			m.AuditFail("dirty line %#x has sharers recorded", line)
		}
	case dirShared:
		if e.owner != -1 {
			m.AuditFail("shared line %#x records owner %d", line, e.owner)
		}
		if e.sharers.Empty() {
			m.AuditFail("shared line %#x has no sharers", line)
		}
	case dirHome:
		if e.owner != -1 || !e.sharers.Empty() {
			m.AuditFail("idle line %#x retains owner %d or sharers", line, e.owner)
		}
	default:
		m.AuditFail("line %#x in unknown directory state %d", line, e.state)
	}
}

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

func (m *Machine) entry(addr uint64) *dirEntry {
	line := m.AlignLine(addr)
	e, ok := m.dir.Get(line)
	if !ok {
		e = m.dirPool.Get()
		e.owner = -1
		m.dir.Put(line, e)
	}
	return e
}

// memLat is node n's local-memory latency for a line, tracking the on-chip
// portion as a cache of the node's own pages.
func (m *Machine) memLat(n int, line uint64) sim.Time {
	if _, hit := m.onchip[n].Access(line); hit {
		return m.cfg.Timing.MemOnChip
	}
	m.onchip[n].Insert(line, cache.Shared, nil)
	return m.cfg.Timing.MemOffChip
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
	line := m.AlignLine(addr)
	home := m.homeFor(p, addr)
	e := m.entry(line)
	upgrade := m.caches[p].Holds(addr) // readable copy present; ownership only

	if home == p {
		return m.localAccess(now, p, addr, line, e, write, upgrade)
	}
	if write {
		return m.remoteWrite(now, p, home, addr, line, e, upgrade)
	}
	return m.remoteRead(now, p, home, addr, line, e)
}

// localAccess handles accesses whose home is the requesting node: the
// directory lookup is overlapped with the memory access and adds no latency
// unless remote copies must be acted on.
func (m *Machine) localAccess(now sim.Time, p int, addr, line uint64, e *dirEntry, write, upgrade bool) (sim.Time, proto.LatClass) {
	ctrl := m.Net.ControlBytes()
	data := m.Net.DataBytes(m.cfg.LineBytes)

	if !write {
		if e.state == dirDirty && int(e.owner) != p {
			// Fetch from the remote owner: two node hops (p -> owner -> p).
			q := int(e.owner)
			rq := m.Net.Send(now, p, q, ctrl)
			qs := m.bank[q].Acquire(rq, m.cfg.Timing.MemBankOcc)
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseNetRequest, rq)
				m.Spans.Mark(obs.PhaseOwnerFetch, qs+m.cfg.Timing.L2Lat)
			}
			done := m.Net.Send(qs+m.cfg.Timing.L2Lat, q, p, data)
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseNetReply, done)
			}
			m.caches[q].DowngradeMemLine(line)
			m.bank[p].Acquire(done, m.cfg.Timing.MemBankOcc) // home memory update
			e.state = dirShared
			e.owner = -1
			e.sharers.Add(q)
			e.sharers.Add(p)
			m.fill(done, p, addr, false)
			return done, proto.Lat2Hop
		}
		bs := m.bank[p].Acquire(now, m.cfg.Timing.MemBankOcc)
		done := bs + m.memLat(p, line)
		if e.state != dirDirty {
			e.sharers.Add(p)
			if e.state == dirHome {
				e.state = dirShared
			}
		}
		m.fill(done, p, addr, e.state == dirDirty && int(e.owner) == p)
		return done, proto.LatMem
	}

	// Local write.
	switch {
	case e.state == dirDirty && int(e.owner) != p:
		// Transfer ownership from the remote owner (2 hops).
		q := int(e.owner)
		rq := m.Net.Send(now, p, q, ctrl)
		qs := m.bank[q].Acquire(rq, m.cfg.Timing.MemBankOcc)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseNetRequest, rq)
			m.Spans.Mark(obs.PhaseOwnerFetch, qs+m.cfg.Timing.L2Lat)
		}
		done := m.Net.Send(qs+m.cfg.Timing.L2Lat, q, p, data)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseNetReply, done)
		}
		m.caches[q].InvalidateMemLine(line)
		m.St.Invalidations++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvInval, rq, 0, int32(q), line, 0)
		}
		e.owner = int32(p)
		e.sharers.Clear()
		m.fill(done, p, addr, true)
		return done, proto.Lat2Hop
	default:
		bs := m.bank[p].Acquire(now, m.cfg.Timing.MemBankOcc)
		done := bs + m.memLat(p, line)
		if m.Spans.On() {
			// Memory access is issue-side work; the ack wait below retires.
			m.Spans.Mark(obs.PhaseIssue, done)
		}
		// Invalidate remote sharers; their acks bound completion.
		for _, q := range e.sharers.Targets(nil, m.allNodes, p) {
			iv := m.Net.Send(now, p, q, ctrl)
			m.caches[q].InvalidateMemLine(line)
			m.St.Invalidations++
			if m.Trace.On() {
				m.Trace.Emit(obs.EvInval, iv, 0, int32(q), line, 0)
			}
			if ack := m.Net.Send(iv, q, p, ctrl); ack > done {
				done = ack
			}
		}
		e.state = dirDirty
		e.owner = int32(p)
		e.sharers.Clear()
		m.fill(done, p, addr, true)
		return done, proto.LatMem
	}
}

// remoteRead handles a read whose home is another node.
func (m *Machine) remoteRead(now sim.Time, p, h int, addr, line uint64, e *dirEntry) (sim.Time, proto.LatClass) {
	ctrl := m.Net.ControlBytes()
	data := m.Net.DataBytes(m.cfg.LineBytes)
	arrive := m.Net.Send(now, p, h, ctrl)
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseNetRequest, arrive)
	}
	hs := m.hproc[h].Acquire(arrive, m.cfg.Costs.ReadOcc)
	m.Prof.Node(h, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadOcc)

	var done sim.Time
	var class proto.LatClass
	switch {
	case e.state == dirDirty && int(e.owner) == h:
		// The home's own caches hold the line dirty; it supplies and its
		// memory is updated in place.
		m.caches[h].DowngradeMemLine(line)
		m.bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadLat)
		}
		done = m.Net.Send(hs+m.cfg.Costs.ReadLat, h, p, data)
		e.state = dirShared
		e.sharers.Add(h)
		class = proto.Lat2Hop
	case e.state == dirDirty && int(e.owner) != p:
		// 3-hop: forward to owner; owner supplies requester and writes the
		// line back to the home (sharing write-back).
		q := int(e.owner)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadLat)
		}
		fwd := m.Net.Send(hs+m.cfg.Costs.ReadLat, h, q, ctrl)
		qs := m.bank[q].Acquire(fwd, m.cfg.Timing.MemBankOcc)
		sendT := qs + m.cfg.Timing.L2Lat
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseOwnerFetch, sendT)
		}
		done = m.Net.Send(sendT, q, p, data)
		wb := m.Net.Send(sendT, q, h, data)
		ws := m.hproc[h].Acquire(wb, m.cfg.Costs.AckOcc)
		m.Prof.Node(h, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.AckOcc)
		m.bank[h].Acquire(ws, m.cfg.Timing.MemBankOcc)
		m.caches[q].DowngradeMemLine(line)
		e.state = dirShared
		e.sharers.Add(q)
		class = proto.Lat3Hop
	default: // clean at home
		// Clean at home (covers the degenerate dirty-at-requester case
		// after a partial L2 eviction: the home's frame is authoritative
		// again). Directory access is overlapped with the memory access.
		m.bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		lat := m.memLat(h, line)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, hs+maxTime(m.cfg.Costs.ReadLat, lat))
		}
		done = m.Net.Send(hs+maxTime(m.cfg.Costs.ReadLat, lat), h, p, data)
		if e.state == dirDirty {
			e.state = dirShared
		}
		if e.state == dirHome {
			e.state = dirShared
		}
		class = proto.Lat2Hop
	}
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseNetReply, done)
	}
	e.sharers.Add(p)
	e.owner = -1
	m.fill(done, p, addr, false)
	return done, class
}

// remoteWrite handles a write whose home is another node.
func (m *Machine) remoteWrite(now sim.Time, p, h int, addr, line uint64, e *dirEntry, upgrade bool) (sim.Time, proto.LatClass) {
	ctrl := m.Net.ControlBytes()
	data := m.Net.DataBytes(m.cfg.LineBytes)
	arrive := m.Net.Send(now, p, h, ctrl)
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseNetRequest, arrive)
	}

	targets := e.sharers.Targets(nil, m.allNodes, p)
	occ := m.cfg.Costs.ReadExOcc + m.cfg.Costs.InvalPerNode*sim.Time(len(targets))
	hs := m.hproc[h].Acquire(arrive, occ)
	m.Prof.Node(h, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadExOcc)
	m.Prof.Node(h, obs.ResProc, obs.HCInval, occ-m.cfg.Costs.ReadExOcc)
	replyT := hs + m.cfg.Costs.ReadExLat
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseDirOcc, replyT)
	}

	var done sim.Time
	var class proto.LatClass
	switch {
	case e.state == dirDirty && int(e.owner) != p && int(e.owner) != h:
		// 3-hop ownership transfer.
		q := int(e.owner)
		fwd := m.Net.Send(replyT, h, q, ctrl)
		qs := m.bank[q].Acquire(fwd, m.cfg.Timing.MemBankOcc)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseOwnerFetch, qs+m.cfg.Timing.L2Lat)
		}
		done = m.Net.Send(qs+m.cfg.Timing.L2Lat, q, p, data)
		m.caches[q].InvalidateMemLine(line)
		m.St.Invalidations++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvInval, fwd, 0, int32(q), line, 0)
		}
		class = proto.Lat3Hop
	case e.state == dirDirty && int(e.owner) == h:
		m.caches[h].InvalidateMemLine(line)
		m.St.Invalidations++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvInval, hs, 0, int32(h), line, 0)
		}
		m.bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		done = m.Net.Send(replyT, h, p, data)
		class = proto.Lat2Hop
	case upgrade:
		done = m.Net.Send(replyT, h, p, ctrl)
		m.St.Upgrades++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvUpgrade, replyT, 0, int32(p), line, 0)
		}
		class = proto.Lat2Hop
	default:
		m.bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		done = m.Net.Send(replyT, h, p, data)
		class = proto.Lat2Hop
	}
	if m.Spans.On() {
		// The data/grant reply ends here; ack collection below retires.
		m.Spans.Mark(obs.PhaseNetReply, done)
	}
	for _, q := range targets {
		iv := m.Net.Send(replyT, h, q, ctrl)
		m.caches[q].InvalidateMemLine(line)
		m.St.Invalidations++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvInval, iv, 0, int32(q), line, 0)
		}
		if ack := m.Net.Send(iv, q, p, ctrl); ack > done {
			done = ack
		}
	}
	e.state = dirDirty
	e.owner = int32(p)
	e.sharers.Clear()
	m.fill(done, p, addr, true)
	return done, class
}

// fill installs a fetched line into p's caches at time when, writing any
// displaced dirty lines back to their homes.
func (m *Machine) fill(when sim.Time, p int, addr uint64, writable bool) {
	m.handleVictims(when, p, m.caches[p].Fill(addr, writable))
}

// handleVictims writes displaced dirty L2 lines back to their homes. A dirty
// 64 B subline is only written back once its sibling subline has also left
// the cache (the memory line is the coherence unit).
func (m *Machine) handleVictims(when sim.Time, p int, victims []cache.Victim) {
	for _, v := range victims {
		if v.State != cache.Dirty {
			continue
		}
		sib := v.Addr ^ m.caches[p].L2.LineBytes()
		if st, ok := m.caches[p].L2.Lookup(sib); ok && st == cache.Dirty {
			continue // other half still dirty here; defer
		}
		line := m.AlignLine(v.Addr)
		e := m.entry(line)
		h := m.homeFor(p, v.Addr)
		if e.state == dirDirty && int(e.owner) == p {
			e.state = dirHome
			e.owner = -1
			e.sharers.Clear()
		}
		m.St.WriteBacks++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvWriteBack, when, 0, int32(p), line, 0)
		}
		if h == p {
			m.bank[p].Acquire(when, m.cfg.Timing.MemBankOcc)
			continue
		}
		// Background write-back message; it contends for links and the
		// home's protocol engine but nobody waits on it.
		wb := m.Net.Send(when, p, h, m.Net.DataBytes(m.cfg.LineBytes))
		ws := m.hproc[h].Acquire(wb, m.cfg.Costs.WBOcc)
		m.Prof.Node(h, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.WBOcc)
		m.bank[h].Acquire(ws, m.cfg.Timing.MemBankOcc)
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// Placement is trivial for NUMA (node i at mesh index i) but exported for
// symmetry with the AGG engine.
func Placement(n int) []int {
	p, _ := core.Placement(n, n, 0)
	return p
}
