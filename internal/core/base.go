package core

import (
	"fmt"

	"pimdsm/internal/mesh"
	"pimdsm/internal/obs"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

// Base is the machine skeleton AGG, CC-NUMA and Flat COMA share: the same
// processor-memory chips on the same mesh (§3), differing only in their
// coherence protocol. It owns the mesh, the event counters, the record-only
// observers (trace, spans, profile), the coherence auditor's bookkeeping and
// the public Access wrapper, so a machine supplies just its protocol access
// and audit hook. Each machine embeds Base by value and calls Init once.
type Base struct {
	Net   *mesh.Mesh
	St    stats.Machine
	Trace *obs.Trace
	Spans *obs.Spans
	Prof  *obs.Profile

	nodes     int
	lineBytes uint64
	groups    []resGroup

	access      AccessFunc
	auditAccess func(addr uint64)
	audit       bool
	auditViol   uint64
	auditSample []string
}

// AccessFunc is a machine's protocol transaction: it services a load or
// store by node p issued at now and returns the completion time and the
// satisfaction class. It marks span phases and emits its protocol events;
// Base.Access adds the rest of the per-access instrumentation.
type AccessFunc func(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass)

// resGroup is one per-node resource slice a machine registered: every group
// is floored by SetFloor; folded groups also report their accounting to the
// profile as resource res of node offset+i.
type resGroup struct {
	rs     []sim.Resource
	fold   bool
	res    obs.NodeRes
	offset int
}

// maxAuditSamples bounds the diagnostic strings kept by the auditors.
const maxAuditSamples = 8

// Init builds the skeleton for a machine of nodes mesh endpoints (name
// prefixes errors) and binds its protocol access and audit hook. A zero mesh
// Width or Height is derived from the node count; an explicit mesh too small
// for the nodes is rejected.
func (b *Base) Init(name string, nodes int, lineBytes uint64, mc mesh.Config, access AccessFunc, audit func(addr uint64)) error {
	if mc.Width == 0 || mc.Height == 0 {
		mc.Width, mc.Height = meshDims(nodes)
	}
	if mc.Width*mc.Height < nodes {
		return fmt.Errorf("%s: mesh %dx%d too small for %d nodes", name, mc.Width, mc.Height, nodes)
	}
	net, err := mesh.New(mc)
	if err != nil {
		return err
	}
	*b = Base{
		Net:         net,
		Trace:       obs.Nop(),
		Spans:       obs.NopSpans(),
		Prof:        obs.NopProfile(),
		nodes:       nodes,
		lineBytes:   lineBytes,
		access:      access,
		auditAccess: audit,
	}
	return nil
}

// meshDims picks a near-square mesh for n endpoints, preferring width 8
// (the paper's machines are 8-wide meshes: 8x8 for 1/1AGG, 8x6 for 1/2AGG,
// 8x5 for 1/4AGG, 8x4 for NUMA/COMA).
func meshDims(n int) (w, h int) {
	w = 8
	if n < 8 {
		w = n
	}
	h = (n + w - 1) / w
	return w, h
}

// Resources registers a per-node resource slice. SetFloor bounds every
// registered calendar; when fold is set, FinishProfile also reports element
// i as resource res of node offset+i.
func (b *Base) Resources(rs []sim.Resource, fold bool, res obs.NodeRes, offset int) {
	b.groups = append(b.groups, resGroup{rs: rs, fold: fold, res: res, offset: offset})
}

// LineBytes returns the coherence unit size.
func (b *Base) LineBytes() uint64 { return b.lineBytes }

// Stats returns the machine's event counters.
func (b *Base) Stats() *stats.Machine { return &b.St }

// Mesh returns the interconnect (for traffic statistics).
func (b *Base) Mesh() *mesh.Mesh { return b.Net }

// AlignLine returns the address of the memory line holding addr.
func (b *Base) AlignLine(addr uint64) uint64 { return addr &^ (b.lineBytes - 1) }

// SetFloor bounds every registered resource calendar, the mesh's included,
// by the scheduler's low watermark f (see sim.Resource).
func (b *Base) SetFloor(f *sim.Time) {
	for _, g := range b.groups {
		sim.SetFloors(f, g.rs)
	}
	b.Net.SetFloor(f)
}

// SetTrace routes protocol trace events to t (nil disables), on the machine
// and its mesh.
func (b *Base) SetTrace(t *obs.Trace) {
	if t == nil {
		t = obs.Nop()
	}
	b.Trace = t
	b.Net.SetTrace(t)
}

// SetSpans routes transaction-span phase marks to s (nil disables), on the
// machine and its mesh. Spans are record-only: timing never reads them.
func (b *Base) SetSpans(s *obs.Spans) {
	if s == nil {
		s = obs.NopSpans()
	}
	b.Spans = s
	b.Net.SetSpans(s)
}

// SetProfile routes handler-class cycle attribution to p (nil disables), on
// the machine and its mesh. Profiling is record-only: timing never reads it.
func (b *Base) SetProfile(p *obs.Profile) {
	if p == nil {
		p = obs.NopProfile()
	}
	p.EnsureNodes(b.nodes)
	b.Prof = p
	b.Net.SetProfile(p)
}

// FinishProfile folds the folded resource groups' independent accounting —
// the cross-check side of the profiler's Σclass == busy invariant — and the
// mesh's into the attached profile. Cold path, called once after a run.
func (b *Base) FinishProfile() {
	if !b.Prof.On() {
		return
	}
	for _, g := range b.groups {
		if !g.fold {
			continue
		}
		for i := range g.rs {
			busy, acq, waited := g.rs[i].Utilization()
			b.Prof.SetResource(g.offset+i, g.res, busy, acq, waited, g.rs[i].FreeAt())
		}
	}
	b.Net.FoldProfile(b.Prof)
}

// SetAudit enables the per-transaction coherence audit: after every access
// retires, the machine's audit hook checks the accessed line against its
// protocol invariants. Auditors only read, so results stay bit-identical.
func (b *Base) SetAudit(on bool) { b.audit = on }

// AuditReport returns the violation count and up to maxAuditSamples
// diagnostics collected since the machine was built.
func (b *Base) AuditReport() (uint64, []string) { return b.auditViol, b.auditSample }

// AuditFail records one coherence-invariant violation.
func (b *Base) AuditFail(format string, args ...any) {
	b.auditViol++
	if len(b.auditSample) < maxAuditSamples {
		b.auditSample = append(b.auditSample, fmt.Sprintf(format, args...))
	}
}

// Access services a load or store issued by node p at local time now
// through the machine's protocol and returns the completion time and the
// satisfaction class. Around the protocol it opens and closes the
// transaction span, runs the audit, counts the access and emits its trace
// event; none of these feed back into timing.
func (b *Base) Access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass) {
	if b.Spans.On() {
		b.Spans.Begin(now, int32(p), b.AlignLine(addr), write)
	}
	done, class := b.access(now, p, addr, write)
	if b.Spans.On() {
		b.Spans.End(done, class)
	}
	if b.audit {
		b.auditAccess(addr)
	}
	if write {
		b.St.Write(class, done-now)
	} else {
		b.St.Read(class, done-now)
	}
	if b.Trace.On() {
		k := obs.EvRead
		if write {
			k = obs.EvWrite
		}
		b.Trace.Emit(k, now, done-now, int32(p), b.AlignLine(addr), uint64(class))
	}
	return done, class
}
