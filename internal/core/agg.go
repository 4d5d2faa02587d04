package core

import (
	"fmt"

	"pimdsm/internal/cache"
	"pimdsm/internal/hashmap"
	"pimdsm/internal/mesh"
	"pimdsm/internal/obs"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

// Config describes one AGG machine (§2 of the paper): PNodes compute nodes
// with tagged local memories organized as caches, and DNodes directory nodes
// running the software coherence protocol over their Directory/Data/Pointer
// arrays.
type Config struct {
	PNodes int
	DNodes int

	LineBytes uint64 // memory line (coherence unit), 128 B in the paper
	PageBytes uint64

	// PMemBytes is each P-node's local DRAM capacity (on- plus off-chip);
	// it is organized as a PMemAssoc-way cache with OnChipFraction of the
	// capacity on chip.
	PMemBytes      uint64
	PMemAssoc      int
	OnChipFraction float64

	// DMemLines is the number of Data slots per D-node. The Directory array
	// has DirFactor times as many entries (the paper evaluates 1.5).
	DMemLines int
	DirFactor float64
	// SharedMinFrac sets the SharedList low-water threshold as a fraction
	// of DMemLines.
	SharedMinFrac float64
	// PageoutBatch is how many pages one pageout episode tries to free.
	PageoutBatch int
	// ScanPerLine is the D-node processor cost per line of a
	// computation-in-memory scan (§2.4).
	ScanPerLine sim.Time
	// DMemSetAssoc, when positive, organizes the D-node Data arrays
	// set-associatively instead of fully associatively — the §2.2.2
	// alternative the paper rejects because incoming lines can find their
	// set full. Kept as an ablation of that design choice.
	DMemSetAssoc int

	Caches proto.CacheGeom
	Timing proto.Timing
	Costs  proto.HandlerCosts
	Mesh   mesh.Config // Width/Height 0 means: derive from node count
}

// DefaultConfig returns a Table 1 configuration for the given node counts and
// per-node memory sizes.
func DefaultConfig(pNodes, dNodes int, pMemBytes uint64, dMemLines int, l1, l2 uint64) Config {
	cfg := Config{
		PNodes:         pNodes,
		DNodes:         dNodes,
		LineBytes:      128,
		PageBytes:      4096,
		PMemBytes:      pMemBytes,
		PMemAssoc:      4,
		OnChipFraction: 0.5,
		DMemLines:      dMemLines,
		// The paper's space-overhead analysis assumes 1.5 Directory entries
		// per Data slot (§2.2.2); we add ~13% slack so the round-robin page
		// placement's ±1-page variance does not sit exactly at the
		// directory-capacity cliff at 75% pressure.
		DirFactor:     1.7,
		SharedMinFrac: 0.05,
		PageoutBatch:  4,
		ScanPerLine:   8,
		Caches:        proto.DefaultCacheGeom(l1, l2),
		Timing:        proto.DefaultTiming(128),
		Costs:         proto.AGGCosts(),
	}
	cfg.Mesh = mesh.DefaultConfig(0, 0) // sized in New
	return cfg
}

// Machine is the AGG coherence engine: the paper's primary contribution.
// It owns the P-node cache hierarchies and tagged memories, the D-node
// software directories, and the mesh, and services memory accesses with
// transaction-atomic timing (see DESIGN.md §2).
type Machine struct {
	Base
	cfg Config

	// Mesh placement: D-nodes are spread evenly among P-nodes.
	pMesh, dMesh []int

	// Per P-node.
	caches []*proto.CacheSet
	pmem   []*cache.LocalMemory
	pbank  []sim.Resource

	// Per D-node.
	dmem  []*DMem
	dproc []sim.Resource // the protocol-handler processor
	dbank []sim.Resource
	disk  []sim.Resource // local paging device

	homes    hashmap.Map[int] // page -> D-node (first touch, round robin)
	nextHome int
	allP     []int
}

// New builds an AGG machine.
func New(cfg Config) (*Machine, error) {
	if cfg.PNodes <= 0 || cfg.DNodes <= 0 {
		return nil, fmt.Errorf("core: need at least one P- and one D-node, got %d/%d", cfg.PNodes, cfg.DNodes)
	}
	total := cfg.PNodes + cfg.DNodes
	m := &Machine{cfg: cfg}
	if err := m.Init("core", total, cfg.LineBytes, cfg.Mesh, m.access, m.auditAccess); err != nil {
		return nil, err
	}
	m.pMesh, m.dMesh = Placement(total, cfg.PNodes, cfg.DNodes)
	m.caches = make([]*proto.CacheSet, cfg.PNodes)
	m.pmem = make([]*cache.LocalMemory, cfg.PNodes)
	m.pbank = make([]sim.Resource, cfg.PNodes)
	for i := range m.caches {
		cs, err := proto.NewCacheSet(cfg.Caches, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		m.caches[i] = cs
		lm, err := cache.NewLocal(cfg.PMemBytes, cfg.LineBytes, cfg.PMemAssoc, cfg.OnChipFraction)
		if err != nil {
			return nil, err
		}
		m.pmem[i] = lm
	}
	m.dmem = make([]*DMem, cfg.DNodes)
	m.dproc = make([]sim.Resource, cfg.DNodes)
	m.dbank = make([]sim.Resource, cfg.DNodes)
	m.disk = make([]sim.Resource, cfg.DNodes)
	sharedMin := int(float64(cfg.DMemLines) * cfg.SharedMinFrac)
	dirEntries := int(float64(cfg.DMemLines) * cfg.DirFactor)
	for i := range m.dmem {
		dm, err := NewDMem(cfg.DMemLines, dirEntries, cfg.LineBytes, cfg.PageBytes, sharedMin)
		if err != nil {
			return nil, err
		}
		if cfg.DMemSetAssoc > 0 {
			a := cfg.DMemSetAssoc
			for cfg.DMemLines%a != 0 {
				a-- // geometry guard for sizes that don't divide evenly
			}
			dm.ConfigureSetAssoc(a)
		}
		m.dmem[i] = dm
	}
	m.allP = make([]int, cfg.PNodes)
	for i := range m.allP {
		m.allP[i] = i
	}
	m.Resources(m.pbank, false, 0, 0)
	m.Resources(m.dproc, true, obs.ResProc, cfg.PNodes)
	m.Resources(m.dbank, true, obs.ResMem, cfg.PNodes)
	m.Resources(m.disk, true, obs.ResDisk, cfg.PNodes)
	return m, nil
}

// Placement spreads d D-nodes evenly among p P-nodes over mesh indices
// 0..total-1 and returns the mesh index of each P-node and D-node.
func Placement(total, p, d int) (pMesh, dMesh []int) {
	isD := make([]bool, total)
	for k := 0; k < d; k++ {
		pos := (k*total + total/2) / d
		for isD[pos%total] {
			pos++
		}
		isD[pos%total] = true
	}
	for i := 0; i < total; i++ {
		if isD[i] {
			dMesh = append(dMesh, i)
		} else {
			pMesh = append(pMesh, i)
		}
	}
	return pMesh, dMesh
}

// profD attributes cycles held on D-node d's resource r to handler class c.
func (m *Machine) profD(d int, r obs.NodeRes, c obs.HandlerClass, cy sim.Time) {
	m.Prof.Node(int(m.dnode(d)), r, c, cy)
}

// auditAccess validates the accessed line's directory entry after a
// transaction. A nil entry is legal: a victim write-back inside the
// transaction can page out the accessed line's own page (pageout only
// protects the victim's page).
func (m *Machine) auditAccess(addr uint64) {
	line := m.AlignLine(addr)
	d, ok := m.homes.Get(m.pageOf(line))
	if !ok {
		m.AuditFail("line %#x: no home assigned after access", line)
		return
	}
	dm := m.dmem[d]
	e := dm.Entry(line)
	if e == nil {
		if !dm.PageOnDisk(m.pageOf(line)) {
			m.AuditFail("line %#x: unmapped at home D%d but not on disk", line, d)
		}
		return
	}
	switch e.State {
	case DirDirty:
		if e.Master == HomeMaster || int(e.Master) >= m.cfg.PNodes {
			m.AuditFail("dirty line %#x has no valid owner (master %d)", line, e.Master)
			break
		}
		if !e.Sharers.Empty() {
			m.AuditFail("dirty line %#x has sharers recorded", line)
		}
		if st, hit, _ := m.pmem[e.Master].Lookup(line); !hit || st != cache.Dirty {
			m.AuditFail("dirty line %#x: owner P%d holds %v (hit=%v), want Dirty", line, e.Master, st, hit)
		}
	case DirShared:
		if e.Master == HomeMaster {
			if !e.HasCopy() {
				m.AuditFail("shared line %#x mastered at home without a home copy", line)
			}
		} else {
			if st, hit, _ := m.pmem[e.Master].Lookup(line); !hit || st != cache.SharedMaster {
				m.AuditFail("shared line %#x: master P%d holds %v (hit=%v), want SharedMaster", line, e.Master, st, hit)
			}
			if !e.Sharers.Contains(int(e.Master)) {
				m.AuditFail("shared line %#x: master P%d missing from sharer vector", line, e.Master)
			}
		}
	case DirHome:
		if e.Master != HomeMaster {
			m.AuditFail("home-state line %#x claims master %d", line, e.Master)
		}
		if e.Unfetched && e.HasCopy() {
			m.AuditFail("unfetched line %#x holds a Data slot", line)
		}
	}
	if err := dm.AuditEntry(e); err != nil {
		m.AuditFail("line %#x at D%d: %v", line, d, err)
	}
	if err := dm.AuditFreeList(); err != nil {
		m.AuditFail("D%d: %v", d, err)
	}
}

// dnode is the trace node ID of D-node d (P-nodes occupy 0..PNodes-1).
func (m *Machine) dnode(d int) int32 { return int32(m.cfg.PNodes + d) }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

func (m *Machine) pageOf(addr uint64) uint64 { return addr &^ (m.cfg.PageBytes - 1) }

// homeFor returns the home D-node of addr's page, assigning it round-robin
// on first touch and mapping the page into the D-node's directory (paging
// out to make directory room if needed). It returns a possibly-advanced time
// if OS work was required.
func (m *Machine) homeFor(t sim.Time, addr uint64) (int, *DirEntry, sim.Time) {
	page := m.pageOf(addr)
	d, ok := m.homes.Get(page)
	if !ok {
		d = m.nextHome % m.cfg.DNodes
		m.nextHome++
		m.homes.Put(page, d)
		m.St.FirstTouches++
	}
	dm := m.dmem[d]
	if !dm.PageMapped(page) {
		if !dm.DirRoom() {
			t = m.pageout(t, d, addr, false)
		}
		if err := dm.MapPage(page); err != nil {
			panic(fmt.Sprintf("core: cannot map page %#x at D%d: %v", page, d, err))
		}
	}
	return d, dm.Entry(addr), t
}

// ownerLat is the latency for a P-node's memory controller to read a line it
// holds, depending on on-/off-chip placement.
func (m *Machine) ownerLat(p int, line uint64) sim.Time {
	_, hit, onChip := m.pmem[p].Lookup(line)
	if hit && onChip {
		return m.cfg.Timing.MemOnChip
	}
	return m.cfg.Timing.MemOffChip
}

// access services a load or store issued by P-node p at local time now
// (Base.Access wraps it with the instrumentation). State across the whole
// machine is updated atomically; timing flows through the contended
// resources (mesh links, D-node processors, DRAM interfaces).
func (m *Machine) access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass) {
	// SRAM caches.
	if hit, class, _ := m.caches[p].Lookup(addr, write); hit {
		lat := m.cfg.Timing.L1Lat
		if class == proto.LatL2 {
			lat = m.cfg.Timing.L2Lat
		}
		return now + lat, class
	}

	// Tagged local memory: on a hit the processor never leaves the node,
	// irrespective of the line's home (§2.1.1).
	st, hit, onChip := m.pmem[p].Access(addr)
	bankStart := m.pbank[p].Acquire(now, m.cfg.Timing.MemBankOcc)
	memLat := m.cfg.Timing.MemOffChip
	if onChip {
		memLat = m.cfg.Timing.MemOnChip
	}
	if !hit {
		// Tag check that misses is resolved on chip.
		memLat = m.cfg.Timing.MemOnChip
	}
	memDone := bankStart + memLat
	if hit && (!write || st == cache.Dirty) {
		m.caches[p].Fill(addr, st == cache.Dirty)
		return memDone, proto.LatMem
	}

	// Remote transaction through the home D-node.
	d, e, reqT := m.homeFor(memDone, addr)
	if write {
		upgrade := hit // p already holds a readable copy; ownership only
		return m.remoteWrite(reqT, p, d, addr, e, upgrade)
	}
	return m.remoteRead(reqT, p, d, addr, e)
}

// remoteRead runs a read transaction at the home D-node d.
func (m *Machine) remoteRead(reqT sim.Time, p, d int, addr uint64, e *DirEntry) (sim.Time, proto.LatClass) {
	line := m.AlignLine(addr)
	ctrl := m.Net.ControlBytes()
	data := m.Net.DataBytes(m.cfg.LineBytes)
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseIssue, reqT)
	}
	arrive := m.Net.Send(reqT, m.pMesh[p], m.dMesh[d], ctrl)
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseNetRequest, arrive)
	}

	var done sim.Time
	var class proto.LatClass
	var fillState cache.State

	switch e.State {
	case DirDirty:
		// 3-hop: forward to the owner, which downgrades to shared-master
		// and supplies the line; the home keeps no copy (the place holder
		// stays reusable, §2.2.2).
		owner := int(e.Master)
		if owner == p {
			panic("core: read miss by the dirty owner")
		}
		hs := m.dproc[d].Acquire(arrive, m.cfg.Costs.ReadOcc)
		m.profD(d, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadOcc)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadLat)
		}
		fwd := m.Net.Send(hs+m.cfg.Costs.ReadLat, m.dMesh[d], m.pMesh[owner], ctrl)
		lat := m.ownerLat(owner, line)
		ms := m.pbank[owner].Acquire(fwd, m.cfg.Timing.MemBankOcc)
		sendT := ms + lat
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseOwnerFetch, sendT)
		}
		done = m.Net.Send(sendT, m.pMesh[owner], m.pMesh[p], data)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseNetReply, done)
		}
		// Sharing write-back: the home regains an up-to-date copy ("its
		// memory contains, in most of the cases, an up-to-date copy of all
		// the lines ... that are not owned by any P-node", §2.2). The copy
		// is optional: if no slot is free without paging out, the home
		// stays copyless and later reads pay 3 hops via the master.
		wbArr := m.Net.Send(sendT, m.pMesh[owner], m.dMesh[d], data)
		ws := m.dproc[d].Acquire(wbArr, m.cfg.Costs.AckOcc)
		m.profD(d, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.AckOcc)
		m.pmem[owner].SetState(line, cache.SharedMaster)
		m.caches[owner].DowngradeMemLine(line)
		e.State = DirShared
		e.Master = int32(owner)
		e.Sharers.Clear()
		e.Sharers.Add(owner)
		e.Sharers.Add(p)
		if res, _ := m.dmem[d].EnsureSlot(e); res != AllocFailed {
			m.dbank[d].Acquire(ws, m.cfg.Timing.MemBankOcc)
			m.profD(d, obs.ResMem, obs.HCListOps, m.cfg.Timing.MemBankOcc)
			m.dmem[d].LinkShared(e)
		}
		fillState, class = cache.Shared, proto.Lat3Hop

	case DirShared:
		if e.HasCopy() {
			// 2-hop reply from the home's Data array.
			hs := m.dproc[d].Acquire(arrive, m.cfg.Costs.ReadOcc)
			m.profD(d, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadOcc)
			m.dbank[d].Acquire(hs, m.cfg.Timing.MemBankOcc)
			m.profD(d, obs.ResMem, obs.HCDirLookup, m.cfg.Timing.MemBankOcc)
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadLat)
			}
			done = m.Net.Send(hs+m.cfg.Costs.ReadLat, m.dMesh[d], m.pMesh[p], data)
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseNetReply, done)
			}
			if e.Master == HomeMaster {
				// Hand mastership out so the home copy becomes droppable
				// ("we give out mastership", §2.2.2).
				e.Master = int32(p)
				m.dmem[d].LinkShared(e)
				fillState = cache.SharedMaster
			} else {
				fillState = cache.Shared
			}
			e.Sharers.Add(p)
			class = proto.Lat2Hop
		} else {
			// The home dropped its copy: 3-hop via the shared-master
			// P-node (the cost the SharedList threshold tries to avoid).
			master := int(e.Master)
			if master == HomeMaster || master == p {
				panic("core: shared line without home copy has no remote master")
			}
			hs := m.dproc[d].Acquire(arrive, m.cfg.Costs.ReadOcc)
			m.profD(d, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadOcc)
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadLat)
			}
			fwd := m.Net.Send(hs+m.cfg.Costs.ReadLat, m.dMesh[d], m.pMesh[master], ctrl)
			lat := m.ownerLat(master, line)
			ms := m.pbank[master].Acquire(fwd, m.cfg.Timing.MemBankOcc)
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseOwnerFetch, ms+lat)
			}
			done = m.Net.Send(ms+lat, m.pMesh[master], m.pMesh[p], data)
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseNetReply, done)
			}
			e.Sharers.Add(p)
			// Re-acquire an optional home copy ("we try to keep shared
			// lines in the home most of the time", §2.2.2).
			wbArr := m.Net.Send(ms+lat, m.pMesh[master], m.dMesh[d], data)
			ws := m.dproc[d].Acquire(wbArr, m.cfg.Costs.AckOcc)
			m.profD(d, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.AckOcc)
			if res, _ := m.dmem[d].EnsureSlot(e); res != AllocFailed {
				m.dbank[d].Acquire(ws, m.cfg.Timing.MemBankOcc)
				m.profD(d, obs.ResMem, obs.HCListOps, m.cfg.Timing.MemBankOcc)
				m.dmem[d].LinkShared(e)
			}
			fillState, class = cache.Shared, proto.Lat3Hop
		}

	case DirHome:
		// 2-hop from the home; the first reader receives mastership and
		// the home copy (if any) joins the SharedList.
		hs := m.dproc[d].Acquire(arrive, m.cfg.Costs.ReadOcc)
		m.profD(d, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadOcc)
		t := hs
		if e.OnDisk {
			t = m.disk[d].Acquire(t, m.cfg.Timing.DiskLat) + m.cfg.Timing.DiskLat
			m.profD(d, obs.ResDisk, obs.HCPageout, m.cfg.Timing.DiskLat)
			m.St.DiskFaults++
			if m.Trace.On() {
				m.Trace.Emit(obs.EvDiskFault, hs, 0, m.dnode(d), line, 0)
			}
		}
		var stored bool
		t, stored = m.ensureSlot(t, d, e)
		m.dbank[d].Acquire(t, m.cfg.Timing.MemBankOcc)
		m.profD(d, obs.ResMem, obs.HCListOps, m.cfg.Timing.MemBankOcc)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, t+m.cfg.Costs.ReadLat)
		}
		done = m.Net.Send(t+m.cfg.Costs.ReadLat, m.dMesh[d], m.pMesh[p], data)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseNetReply, done)
		}
		e.State = DirShared
		e.Master = int32(p)
		e.Sharers.Add(p)
		e.Unfetched = false
		e.OnDisk = false
		if stored {
			m.dmem[d].LinkShared(e)
		}
		fillState, class = cache.SharedMaster, proto.Lat2Hop

	default:
		panic("core: unknown directory state")
	}

	m.fill(done, p, addr, fillState, false)
	return done, class
}

// remoteWrite runs a read-exclusive or upgrade transaction at the home.
func (m *Machine) remoteWrite(reqT sim.Time, p, d int, addr uint64, e *DirEntry, upgrade bool) (sim.Time, proto.LatClass) {
	line := m.AlignLine(addr)
	ctrl := m.Net.ControlBytes()
	data := m.Net.DataBytes(m.cfg.LineBytes)
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseIssue, reqT)
	}
	arrive := m.Net.Send(reqT, m.pMesh[p], m.dMesh[d], ctrl)
	if m.Spans.On() {
		m.Spans.Mark(obs.PhaseNetRequest, arrive)
	}

	var done sim.Time
	var class proto.LatClass

	switch e.State {
	case DirDirty:
		// 3-hop ownership transfer from the current owner.
		owner := int(e.Master)
		if owner == p {
			panic("core: write miss by the dirty owner")
		}
		hs := m.dproc[d].Acquire(arrive, m.cfg.Costs.ReadExOcc)
		m.profD(d, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadExOcc)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadExLat)
		}
		fwd := m.Net.Send(hs+m.cfg.Costs.ReadExLat, m.dMesh[d], m.pMesh[owner], ctrl)
		lat := m.ownerLat(owner, line)
		ms := m.pbank[owner].Acquire(fwd, m.cfg.Timing.MemBankOcc)
		sendT := ms + lat
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseOwnerFetch, sendT)
		}
		done = m.Net.Send(sendT, m.pMesh[owner], m.pMesh[p], data)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseNetReply, done)
		}
		ackArr := m.Net.Send(sendT, m.pMesh[owner], m.dMesh[d], ctrl)
		m.dproc[d].Acquire(ackArr, m.cfg.Costs.AckOcc)
		m.profD(d, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.AckOcc)
		m.pmem[owner].Invalidate(line)
		m.caches[owner].InvalidateMemLine(line)
		m.St.Invalidations++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvInval, fwd, 0, int32(owner), line, 0)
		}
		e.Master = int32(p)
		class = proto.Lat3Hop

	case DirShared:
		targets := e.Sharers.Targets(nil, m.allP, p)
		occ := m.cfg.Costs.ReadExOcc + m.cfg.Costs.InvalPerNode*sim.Time(len(targets))
		hs := m.dproc[d].Acquire(arrive, occ)
		m.profD(d, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadExOcc)
		m.profD(d, obs.ResProc, obs.HCInval, occ-m.cfg.Costs.ReadExOcc)
		replyT := hs + m.cfg.Costs.ReadExLat
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, replyT)
		}

		// Data (or grant) path first, since it may need the remote master's
		// memory before that copy is invalidated.
		switch {
		case upgrade:
			done = m.Net.Send(replyT, m.dMesh[d], m.pMesh[p], ctrl)
			m.St.Upgrades++
			if m.Trace.On() {
				m.Trace.Emit(obs.EvUpgrade, replyT, 0, int32(p), line, 0)
			}
			class = proto.Lat2Hop
		case e.HasCopy():
			m.dbank[d].Acquire(hs, m.cfg.Timing.MemBankOcc)
			m.profD(d, obs.ResMem, obs.HCDirLookup, m.cfg.Timing.MemBankOcc)
			done = m.Net.Send(replyT, m.dMesh[d], m.pMesh[p], data)
			class = proto.Lat2Hop
		default:
			master := int(e.Master)
			if master == HomeMaster || master == p {
				panic("core: shared line without home copy has no remote master")
			}
			fwd := m.Net.Send(replyT, m.dMesh[d], m.pMesh[master], ctrl)
			lat := m.ownerLat(master, line)
			ms := m.pbank[master].Acquire(fwd, m.cfg.Timing.MemBankOcc)
			if m.Spans.On() {
				m.Spans.Mark(obs.PhaseOwnerFetch, ms+lat)
			}
			done = m.Net.Send(ms+lat, m.pMesh[master], m.pMesh[p], data)
			class = proto.Lat3Hop
		}
		if m.Spans.On() {
			// The reply (data or grant) ends here; invalidation-ack
			// collection below extends `done` and lands in retire.
			m.Spans.Mark(obs.PhaseNetReply, done)
		}

		// Invalidations fan out from the home, staggered by the per-inval
		// handler occupancy; each target acks directly to the requester
		// (DASH-style ack collection).
		for i, q := range targets {
			iv := m.Net.Send(replyT+sim.Time(i)*m.cfg.Costs.InvalPerNode, m.dMesh[d], m.pMesh[q], ctrl)
			m.pmem[q].Invalidate(line)
			m.caches[q].InvalidateMemLine(line)
			m.St.Invalidations++
			if m.Trace.On() {
				m.Trace.Emit(obs.EvInval, iv, 0, int32(q), line, 0)
			}
			ack := m.Net.Send(iv, m.pMesh[q], m.pMesh[p], ctrl)
			if ack > done {
				done = ack
			}
		}

		// The home's place holder is reusable once the line is dirty in a
		// P-node (§2.2.2).
		if e.HasCopy() {
			m.dmem[d].UnlinkShared(e)
			m.dmem[d].ReleaseSlot(e)
		}
		e.State = DirDirty
		e.Master = int32(p)
		e.Sharers.Clear()

	case DirHome:
		hs := m.dproc[d].Acquire(arrive, m.cfg.Costs.ReadExOcc)
		m.profD(d, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadExOcc)
		t := hs
		if e.OnDisk {
			t = m.disk[d].Acquire(t, m.cfg.Timing.DiskLat) + m.cfg.Timing.DiskLat
			m.profD(d, obs.ResDisk, obs.HCPageout, m.cfg.Timing.DiskLat)
			m.St.DiskFaults++
			if m.Trace.On() {
				m.Trace.Emit(obs.EvDiskFault, hs, 0, m.dnode(d), line, 0)
			}
			// The data now travels to the writer; the home keeps no slot.
			e.OnDisk = false
		}
		if e.HasCopy() {
			m.dbank[d].Acquire(t, m.cfg.Timing.MemBankOcc)
			m.profD(d, obs.ResMem, obs.HCDirLookup, m.cfg.Timing.MemBankOcc)
			m.dmem[d].ReleaseSlot(e)
		}
		// Unfetched lines are satisfied by zero-fill: no slot was ever used.
		e.Unfetched = false
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseDirOcc, t+m.cfg.Costs.ReadExLat)
		}
		done = m.Net.Send(t+m.cfg.Costs.ReadExLat, m.dMesh[d], m.pMesh[p], data)
		if m.Spans.On() {
			m.Spans.Mark(obs.PhaseNetReply, done)
		}
		e.State = DirDirty
		e.Master = int32(p)
		e.Sharers.Clear()
		class = proto.Lat2Hop

	default:
		panic("core: unknown directory state")
	}

	if upgrade {
		if !m.pmem[p].SetState(line, cache.Dirty) {
			panic("core: upgrade of a line absent from local memory")
		}
		m.caches[p].Fill(addr, true)
	} else {
		m.fill(done, p, addr, cache.Dirty, true)
	}
	return done, class
}

// pmemRank orders P-node memory replacement victims: plain shared copies go
// first (they can be silently dropped and cheaply refetched from the home),
// then owned lines (whose displacement costs a write-back and a home Data
// slot). Keeping owned lines parked in P-memories is what lets the machine
// run at high memory pressure — Figure 8's large Dirty-in-P population.
func pmemRank(s cache.State) int {
	if s == cache.Shared {
		return 0
	}
	return 1
}

// fill installs a fetched line into p's local memory and caches, handling
// the displaced victim: owned victims (dirty or shared-master) are written
// back to their home — which always accepts them — while plain shared copies
// are dropped silently.
func (m *Machine) fill(when sim.Time, p int, addr uint64, st cache.State, writable bool) {
	line := m.AlignLine(addr)
	v := m.pmem[p].Insert(line, st, pmemRank)
	m.caches[p].Fill(addr, writable)
	if !v.Valid() {
		return
	}
	m.caches[p].InvalidateMemLine(v.Addr)
	if v.State.Owned() {
		m.writeBack(when, p, v.Addr, v.State)
	}
}

// writeBack sends a displaced owned line home (§2.2.2: incoming lines are
// always taken in by their home memory).
func (m *Machine) writeBack(t sim.Time, p int, line uint64, st cache.State) {
	page := m.pageOf(line)
	d, ok := m.homes.Get(page)
	if !ok {
		panic("core: write-back of a line with no home")
	}
	dm := m.dmem[d]
	e := dm.Entry(line)
	if e == nil {
		panic("core: write-back to an unmapped page (recall should have preceded unmap)")
	}
	arrive := m.Net.Send(t, m.pMesh[p], m.dMesh[d], m.Net.DataBytes(m.cfg.LineBytes))
	hs := m.dproc[d].Acquire(arrive, m.cfg.Costs.WBOcc)
	m.profD(d, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.WBOcc)
	m.St.WriteBacks++
	if m.Trace.On() {
		m.Trace.Emit(obs.EvWriteBack, t, 0, int32(p), line, 0)
	}

	switch st {
	case cache.Dirty:
		if e.State != DirDirty || int(e.Master) != p {
			panic(fmt.Sprintf("core: dirty write-back of %#x by P%d but directory says %v/master=%d", line, p, e.State, e.Master))
		}
		var stored bool
		hs, stored = m.ensureSlot(hs, d, e)
		if !stored {
			m.spill(hs, d, e)
			return
		}
		m.dbank[d].Acquire(hs, m.cfg.Timing.MemBankOcc)
		m.profD(d, obs.ResMem, obs.HCWriteBack, m.cfg.Timing.MemBankOcc)
		e.State = DirHome
		e.Master = HomeMaster
		e.Sharers.Clear()
	case cache.SharedMaster:
		if e.State != DirShared || int(e.Master) != p {
			panic(fmt.Sprintf("core: master write-back of %#x by P%d but directory says %v/master=%d", line, p, e.State, e.Master))
		}
		if e.HasCopy() {
			dm.UnlinkShared(e)
		} else {
			var stored bool
			hs, stored = m.ensureSlot(hs, d, e)
			if !stored {
				m.spill(hs, d, e)
				return
			}
			m.dbank[d].Acquire(hs, m.cfg.Timing.MemBankOcc)
			m.profD(d, obs.ResMem, obs.HCWriteBack, m.cfg.Timing.MemBankOcc)
		}
		e.Master = HomeMaster
		e.Sharers.Remove(p)
		if e.Sharers.Empty() {
			e.State = DirHome
		}
	default:
		panic("core: write-back of a non-owned line")
	}
}

// ensureSlot obtains a Data slot for e. Incoming lines are always taken in
// (§2.2.2); when free space falls to the low-water threshold, the OS pages
// out in the *background* (the triggering transaction reuses a SharedList
// slot and does not wait). Only when both lists are exhausted — the paper's
// crisis case, where D-nodes would pause the P-nodes — does the transaction
// block on a synchronous pageout. ok is false only in the set-associative
// ablation, where the line's set can stay full no matter how much the home
// pages out (the situation whose COMA-style injections the paper's
// fully-associative organization exists to avoid).
func (m *Machine) ensureSlot(t sim.Time, d int, e *DirEntry) (sim.Time, bool) {
	dm := m.dmem[d]
	if res, _ := dm.EnsureSlot(e); res != AllocFailed {
		// The FreeList drain toward the pageout threshold is the curve the
		// paper's crisis analysis cares about; sample it per allocation.
		if m.Trace.On() {
			m.Trace.Emit(obs.EvOcc, t, 0, m.dnode(d), 0, uint64(dm.FreeLen()))
		}
		if dm.NeedPageout() {
			m.pageout(t, d, e.Addr, true) // background refill of the FreeList
		}
		return t, true
	}
	if forced, _ := dm.ForceSlot(e); forced {
		return t, true
	}
	// Crisis: nothing reusable. Stall on pageouts — the effect of the
	// paper's high-priority pause interrupt.
	m.St.CrisisPauses++
	if m.Trace.On() {
		m.Trace.Emit(obs.EvCrisis, t, 0, m.dnode(d), e.Addr, uint64(dm.FreeLen()))
	}
	for attempt := 0; attempt < 4; attempt++ {
		t = m.pageout(t, d, e.Addr, true)
		if res, _ := dm.EnsureSlot(e); res != AllocFailed {
			return t, true
		}
		if forced, _ := dm.ForceSlot(e); forced {
			return t, true
		}
	}
	if m.cfg.DMemSetAssoc > 0 {
		return t, false // the caller spills the line (Overflows)
	}
	panic(fmt.Sprintf("core: D%d out of memory for line %#x", d, e.Addr))
}

// spill records that the home could not store an incoming line (only
// possible in the set-associative ablation): the data goes straight to the
// paging device, read-only copies elsewhere stay valid, and the next use
// pays a disk fault.
func (m *Machine) spill(t sim.Time, d int, e *DirEntry) {
	m.disk[d].Acquire(t, m.cfg.Timing.DiskLat)
	m.profD(d, obs.ResDisk, obs.HCPageout, m.cfg.Timing.DiskLat)
	e.State = DirHome
	e.Master = HomeMaster
	e.Sharers.Clear()
	e.Unfetched = false
	e.OnDisk = true
	m.St.Overflows++
	if m.Trace.On() {
		m.Trace.Emit(obs.EvOverflow, t, 0, m.dnode(d), e.Addr, 0)
	}
}

// pageout frees D-node memory by unmapping pages (§2.2.2): the OS walks the
// victim page's directory entries, recalls lines not present in the D-node
// memory, invalidates P-node copies, writes the page to disk and unmaps it.
// When wantSlots is set it keeps going until the FreeList is non-empty;
// otherwise one batch is processed to make directory room. It returns the
// completion time, and blocks the D-node processor for the duration.
func (m *Machine) pageout(t sim.Time, d int, protect uint64, wantSlots bool) sim.Time {
	dm := m.dmem[d]
	start := t
	var recallWait sim.Time
	ctrl := m.Net.ControlBytes()
	data := m.Net.DataBytes(m.cfg.LineBytes)
	processed := 0
	for processed < m.cfg.PageoutBatch || (wantSlots && dm.FreeLen() == 0) {
		cands := dm.PageoutCandidates(1, protect)
		if len(cands) == 0 {
			break
		}
		page := cands[0]
		var lastArrive sim.Time
		dm.PageLines(page, func(e *DirEntry) {
			t += m.cfg.Costs.AckOcc // per-entry OS processing
			switch e.State {
			case DirDirty:
				// Recall the only copy from its owner.
				owner := int(e.Master)
				rq := m.Net.Send(t, m.dMesh[d], m.pMesh[owner], ctrl)
				ms := m.pbank[owner].Acquire(rq, m.cfg.Timing.MemBankOcc)
				back := m.Net.Send(ms+m.ownerLat(owner, e.Addr), m.pMesh[owner], m.dMesh[d], data)
				if back > lastArrive {
					lastArrive = back
				}
				m.pmem[owner].Invalidate(e.Addr)
				m.caches[owner].InvalidateMemLine(e.Addr)
				m.St.Recalls++
				if m.Trace.On() {
					m.Trace.Emit(obs.EvRecall, rq, 0, int32(owner), e.Addr, 0)
				}
			case DirShared:
				// Recall the master copy if the home dropped its own, and
				// invalidate every sharer.
				if !e.HasCopy() && e.Master != HomeMaster {
					master := int(e.Master)
					rq := m.Net.Send(t, m.dMesh[d], m.pMesh[master], ctrl)
					ms := m.pbank[master].Acquire(rq, m.cfg.Timing.MemBankOcc)
					back := m.Net.Send(ms+m.ownerLat(master, e.Addr), m.pMesh[master], m.dMesh[d], data)
					if back > lastArrive {
						lastArrive = back
					}
					m.St.Recalls++
					if m.Trace.On() {
						m.Trace.Emit(obs.EvRecall, rq, 0, int32(master), e.Addr, 0)
					}
				}
				for _, q := range e.Sharers.Targets(nil, m.allP, -1) {
					iv := m.Net.Send(t, m.dMesh[d], m.pMesh[q], ctrl)
					if iv > lastArrive {
						lastArrive = iv
					}
					m.pmem[q].Invalidate(e.Addr)
					m.caches[q].InvalidateMemLine(e.Addr)
					m.St.Invalidations++
					if m.Trace.On() {
						m.Trace.Emit(obs.EvInval, iv, 0, int32(q), e.Addr, 0)
					}
				}
			}
			dm.UnlinkShared(e)
			e.State = DirHome
			e.Master = HomeMaster
			e.Sharers.Clear()
		})
		if lastArrive > t {
			recallWait += lastArrive - t
			t = lastArrive
		}
		// Write the page to disk and unmap it.
		ds := m.disk[d].Acquire(t, m.cfg.Timing.DiskLat)
		m.profD(d, obs.ResDisk, obs.HCPageout, m.cfg.Timing.DiskLat)
		t = ds + m.cfg.Timing.DiskLat
		if err := dm.UnmapPage(page); err != nil {
			panic(fmt.Sprintf("core: pageout unmap failed: %v", err))
		}
		m.St.Pageouts++
		processed++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvPageout, t, 0, m.dnode(d), page, uint64(dm.FreeLen()))
		}
	}
	if t > start {
		m.dproc[d].Block(start, t)
		// The Block charges the whole episode to the protocol processor;
		// split it between waiting on recalled lines and the pageout walk
		// proper so the class buckets still sum to the resource's busy time.
		m.profD(d, obs.ResProc, obs.HCRecall, recallWait)
		m.profD(d, obs.ResProc, obs.HCPageout, (t-start)-recallWait)
	}
	if m.Trace.On() {
		m.Trace.Emit(obs.EvOcc, t, 0, m.dnode(d), 0, uint64(dm.FreeLen()))
	}
	return t
}

// CensusTotal aggregates the Figure 8 classification over all D-nodes.
func (m *Machine) CensusTotal() Census {
	var c Census
	for _, dm := range m.dmem {
		dm.CensusAdd(&c)
	}
	return c
}

// DMemOf exposes a D-node's memory for tests and reconfiguration accounting.
func (m *Machine) DMemOf(d int) *DMem { return m.dmem[d] }

// DMemStatsTotal sums the D-node memory-management counters.
func (m *Machine) DMemStatsTotal() DMemStats {
	var t DMemStats
	for _, dm := range m.dmem {
		t.SlotAllocs += dm.Stats.SlotAllocs
		t.SharedReuses += dm.Stats.SharedReuses
		t.PageoutsAsked += dm.Stats.PageoutsAsked
		t.PagesMapped += dm.Stats.PagesMapped
		t.PagesUnmapped += dm.Stats.PagesUnmapped
		t.SetConflicts += dm.Stats.SetConflicts
	}
	return t
}

// PMemOf exposes a P-node's tagged memory for tests.
func (m *Machine) PMemOf(p int) *cache.LocalMemory { return m.pmem[p] }

// CheckInvariants verifies every D-node's data structures plus the
// directory-vs-ground-truth agreement for owned lines.
func (m *Machine) CheckInvariants() error {
	for d, dm := range m.dmem {
		if err := dm.CheckInvariants(); err != nil {
			return fmt.Errorf("D%d: %w", d, err)
		}
	}
	// Every owned line in a P-node memory must be known to its directory.
	for p, pm := range m.pmem {
		var err error
		pm.ForEach(func(addr uint64, s cache.State, _ bool) {
			if err != nil || !s.Owned() {
				return
			}
			d, ok := m.homes.Get(m.pageOf(addr))
			if !ok {
				err = fmt.Errorf("P%d holds %#x (%v) with no home", p, addr, s)
				return
			}
			e := m.dmem[d].Entry(addr)
			if e == nil {
				err = fmt.Errorf("P%d holds %#x (%v) but home D%d has no entry", p, addr, s, d)
				return
			}
			switch s {
			case cache.Dirty:
				if e.State != DirDirty || int(e.Master) != p {
					err = fmt.Errorf("P%d holds %#x dirty but directory says %v/master=%d", p, addr, e.State, e.Master)
				}
			case cache.SharedMaster:
				if e.State != DirShared || int(e.Master) != p {
					err = fmt.Errorf("P%d holds %#x shared-master but directory says %v/master=%d", p, addr, e.State, e.Master)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// DProcUtil reports aggregate D-node protocol-processor busy time, queueing
// delay imposed on transactions, and handler invocations — the key saturation
// diagnostic for the reconfigurability experiments.
func (m *Machine) DProcUtil() (busy, waited sim.Time, acquires uint64) {
	for i := range m.dproc {
		b, a, w := m.dproc[i].Utilization()
		busy += b
		waited += w
		acquires += a
	}
	return busy, waited, acquires
}
