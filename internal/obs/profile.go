package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

// Profile is a sim-time accounting profiler: it attributes every cycle a
// protocol resource is held to a handler class, folds the per-thread
// issue/stall split into per-P-node buckets, and samples mesh-link queueing
// into a bounded time series. Like Trace and Spans it is record-only — a run
// is bit-identical with profiling on or off — and the disabled path is a
// single branch with zero allocations.
//
// Cycle-attribution model (see DESIGN.md, "Profiler cycle attribution"):
//
//   - P-nodes: every advance of a thread's clock is charged to exactly one of
//     busy / mem-stall / sync-spin by the cpu package, so per node
//     busy + mem-stall + sync-spin + idle == Exec exactly, where idle is the
//     tail the node spends finished while stragglers run.
//   - D-nodes (and NUMA/COMA home engines): every Acquire/Block on a covered
//     sim.Resource is paired with one Node() attribution, so per node and
//     resource the class buckets sum exactly to the resource's independently
//     accumulated busy time. CheckInvariants verifies both identities.
type Profile struct {
	on   bool
	meta string // "arch/app" label, used as the folded-stack root

	exec sim.Time // measured-window execution time (engine cycles)

	// Per-node handler-class attribution, indexed by global node id.
	nodes [][NumNodeRes][NumHandlerClasses]sim.Time
	// Independent per-resource accounting from sim.Resource, the cross-check
	// side of the invariant.
	busy    [][NumNodeRes]sim.Time
	waited  [][NumNodeRes]sim.Time
	freeAt  [][NumNodeRes]sim.Time
	covered [][NumNodeRes]bool

	// Per-P-node issue/stall buckets (folded post-run from stats.Thread).
	pn    [][NumPClasses]sim.Time
	isP   []bool
	nPSet int

	// Mesh link accounting.
	meshW, meshH int
	linkBusy     []sim.Time
	linkWaited   []sim.Time
	linkAcq      []uint64
	waitHist     stats.LatHist
	hopCount     uint64
	sampleMask   uint64
	samples      []LinkSample
	sHead        uint64
}

// HandlerClass attributes protocol-resource cycles to the duty that burned
// them — the D-node occupancy split of the paper's cost argument.
type HandlerClass uint8

// The handler classes. Scan covers computation-in-memory traversals (§2.4),
// which would otherwise make the class buckets undercount dproc busy time.
const (
	HCDirLookup HandlerClass = iota // directory lookup + reply handlers
	HCListOps                       // FreeList/SharedList slot fills (Data array)
	HCInval                         // invalidation fan-out occupancy
	HCWriteBack                     // write-back and ack/ownership handlers
	HCRecall                        // waiting on recalled lines during pageout
	HCPageout                       // pageout walks, disk faults, overflow swaps
	HCScan                          // computation-in-memory scans
	NumHandlerClasses
)

// String returns the class label used in reports and folded stacks.
func (c HandlerClass) String() string {
	switch c {
	case HCDirLookup:
		return "dir-lookup"
	case HCListOps:
		return "list-ops"
	case HCInval:
		return "inval"
	case HCWriteBack:
		return "writeback"
	case HCRecall:
		return "recall"
	case HCPageout:
		return "pageout"
	case HCScan:
		return "scan"
	}
	return fmt.Sprintf("HandlerClass(%d)", uint8(c))
}

// NodeRes identifies which of a node's serially-reusable resources burned
// the attributed cycles.
type NodeRes uint8

// The covered node resources.
const (
	ResProc NodeRes = iota // protocol processor (dproc / home engine)
	ResMem                 // data-array / memory bank
	ResDisk                // paging device
	NumNodeRes
)

// String returns the resource label.
func (r NodeRes) String() string {
	switch r {
	case ResProc:
		return "proc"
	case ResMem:
		return "mem"
	case ResDisk:
		return "disk"
	}
	return fmt.Sprintf("NodeRes(%d)", uint8(r))
}

// PClass is a P-node time bucket.
type PClass uint8

// The P-node buckets. They partition the measured window exactly.
const (
	PBusy PClass = iota
	PMemStall
	PSyncSpin
	PIdle
	NumPClasses
)

// String returns the bucket label.
func (c PClass) String() string {
	switch c {
	case PBusy:
		return "busy"
	case PMemStall:
		return "mem-stall"
	case PSyncSpin:
		return "sync-spin"
	case PIdle:
		return "idle"
	}
	return fmt.Sprintf("PClass(%d)", uint8(c))
}

// LinkSample is one sampled mesh-link acquisition: when, how long the message
// waited, and how many reservations were still pending on the link.
type LinkSample struct {
	At    sim.Time
	Wait  sim.Time
	Link  int32
	Depth int32
}

// profileSamplePeriod is the link-acquisition sampling period (power of two).
const profileSamplePeriod = 64

// profileSampleCap bounds the retained sample ring (power of two).
const profileSampleCap = 4096

var nopProfile = &Profile{}

// NopProfile returns the shared disabled profiler. Its On() is false and
// every recording method returns immediately, so engines can hold a non-nil
// *Profile unconditionally.
func NopProfile() *Profile { return nopProfile }

// NewProfile returns an enabled profiler. Node and mesh tables are sized by
// the engine via EnsureNodes/SetMeshDims when the profile is attached.
func NewProfile() *Profile {
	return &Profile{
		on:         true,
		sampleMask: profileSamplePeriod - 1,
		samples:    make([]LinkSample, profileSampleCap),
	}
}

// On reports whether the profiler records. The single-branch guard engines
// use before every attribution call.
func (p *Profile) On() bool { return p.on }

// EnsureNodes sizes the per-node tables for n global node ids. Cold path,
// called once when the profile is attached to an engine.
func (p *Profile) EnsureNodes(n int) {
	if !p.on || len(p.nodes) >= n {
		return
	}
	p.nodes = make([][NumNodeRes][NumHandlerClasses]sim.Time, n)
	p.busy = make([][NumNodeRes]sim.Time, n)
	p.waited = make([][NumNodeRes]sim.Time, n)
	p.freeAt = make([][NumNodeRes]sim.Time, n)
	p.covered = make([][NumNodeRes]bool, n)
	p.pn = make([][NumPClasses]sim.Time, n)
	p.isP = make([]bool, n)
}

// SetMeshDims records the mesh geometry and sizes the per-link tables. Cold
// path, called by Mesh.SetProfile.
func (p *Profile) SetMeshDims(w, h int) {
	if !p.on {
		return
	}
	p.meshW, p.meshH = w, h
	n := w * h * 4
	if len(p.linkBusy) < n {
		p.linkBusy = make([]sim.Time, n)
		p.linkWaited = make([]sim.Time, n)
		p.linkAcq = make([]uint64, n)
	}
}

// SetMeta records the run label used as the folded-stack root.
func (p *Profile) SetMeta(label string) {
	if p.on {
		p.meta = label
	}
}

// SetExec records the measured-window execution time.
func (p *Profile) SetExec(t sim.Time) {
	if p.on {
		p.exec = t
	}
}

// Node attributes cycles held on node's resource r to handler class c.
// Hot path: one branch (the caller's On() guard), two indexes, one add.
func (p *Profile) Node(node int, r NodeRes, c HandlerClass, cycles sim.Time) {
	if !p.on || node >= len(p.nodes) {
		return
	}
	p.nodes[node][r][c] += cycles
}

// MeshHop records one link acquisition's queueing delay and reports whether
// this hop is sampled (the mesh then calls MeshSample with the queue depth).
// Hot path when enabled; allocation-free.
func (p *Profile) MeshHop(link int, wait sim.Time) bool {
	if !p.on {
		return false
	}
	p.waitHist.Observe(wait)
	p.hopCount++
	return p.hopCount&p.sampleMask == 0
}

// MeshSample records one sampled link acquisition into the bounded ring.
func (p *Profile) MeshSample(link int, at, wait sim.Time, depth int) {
	if !p.on || len(p.samples) == 0 {
		return
	}
	p.samples[p.sHead&uint64(len(p.samples)-1)] = LinkSample{
		At: at, Wait: wait, Link: int32(link), Depth: int32(depth),
	}
	p.sHead++
}

// SetResource folds a covered resource's independent accounting (from
// sim.Resource.Utilization) into the profile. Cold path, end of run.
func (p *Profile) SetResource(node int, r NodeRes, busy sim.Time, acquires uint64, waited, freeAt sim.Time) {
	if !p.on || node >= len(p.nodes) {
		return
	}
	_ = acquires
	p.busy[node][r] = busy
	p.waited[node][r] = waited
	p.freeAt[node][r] = freeAt
	p.covered[node][r] = true
}

// AddPNode folds one thread's measured-window accounting into its node's
// buckets. idle is the straggler tail: exec − finish.
func (p *Profile) AddPNode(node int, busy, memStall, syncSpin, finish sim.Time) {
	if !p.on || node >= len(p.pn) {
		return
	}
	var idle sim.Time
	if finish <= p.exec {
		idle = p.exec - finish
	}
	p.pn[node] = [NumPClasses]sim.Time{busy, memStall, syncSpin, idle}
	if !p.isP[node] {
		p.isP[node] = true
		p.nPSet++
	}
}

// SetLink folds one directed link's accounting (from sim.Resource).
func (p *Profile) SetLink(link int, busy sim.Time, acquires uint64, waited sim.Time) {
	if !p.on || link >= len(p.linkBusy) {
		return
	}
	p.linkBusy[link] = busy
	p.linkWaited[link] = waited
	p.linkAcq[link] = acquires
}

// Exec returns the recorded measured-window execution time.
func (p *Profile) Exec() sim.Time { return p.exec }

// NodeCycles returns the cycles attributed to (node, resource, class).
func (p *Profile) NodeCycles(node int, r NodeRes, c HandlerClass) sim.Time {
	if node >= len(p.nodes) {
		return 0
	}
	return p.nodes[node][r][c]
}

// PCycles returns node's P bucket.
func (p *Profile) PCycles(node int, c PClass) sim.Time {
	if node >= len(p.pn) {
		return 0
	}
	return p.pn[node][c]
}

// Samples returns the retained link samples in record order (oldest first
// once the ring has wrapped).
func (p *Profile) Samples() []LinkSample {
	if p.sHead == 0 {
		return nil
	}
	n := uint64(len(p.samples))
	if p.sHead <= n {
		return p.samples[:p.sHead]
	}
	out := make([]LinkSample, n)
	for i := uint64(0); i < n; i++ {
		out[i] = p.samples[(p.sHead+i)&(n-1)]
	}
	return out
}

// HopCount returns the number of link acquisitions observed.
func (p *Profile) HopCount() uint64 { return p.hopCount }

// WaitHist returns a copy of the link-wait histogram.
func (p *Profile) WaitHist() stats.LatHist { return p.waitHist }

// WaitPercentile returns an upper bound on the q-quantile of link waits.
func (p *Profile) WaitPercentile(q float64) sim.Time { return p.waitHist.Percentile(q) }

// classSum returns the attributed cycles summed over classes for (node, r).
func (p *Profile) classSum(node int, r NodeRes) sim.Time {
	var s sim.Time
	for c := HandlerClass(0); c < NumHandlerClasses; c++ {
		s += p.nodes[node][r][c]
	}
	return s
}

// CheckInvariants verifies the cycle-attribution identities and returns a
// description of every violation (empty on a healthy run):
//
//   - per P-node: busy + mem-stall + sync-spin + idle == exec
//   - per covered (node, resource): Σ class buckets == resource busy time
func (p *Profile) CheckInvariants() []string {
	var out []string
	for n := range p.pn {
		if !p.isP[n] {
			continue
		}
		var sum sim.Time
		for c := PClass(0); c < NumPClasses; c++ {
			sum += p.pn[n][c]
		}
		if sum != p.exec {
			out = append(out, fmt.Sprintf("P-node %d: buckets sum to %d, exec is %d", n, sum, p.exec))
		}
	}
	for n := range p.nodes {
		for r := NodeRes(0); r < NumNodeRes; r++ {
			if !p.covered[n][r] {
				continue
			}
			if got, want := p.classSum(n, r), p.busy[n][r]; got != want {
				out = append(out, fmt.Sprintf("node %d %s: class buckets sum to %d, resource busy is %d", n, r, got, want))
			}
		}
	}
	return out
}

// horizon is the report denominator: the measured window, extended to cover
// reservations engines booked past the last thread's finish (background
// write-backs, pageouts).
func (p *Profile) horizon() sim.Time {
	h := p.exec
	for n := range p.freeAt {
		for r := NodeRes(0); r < NumNodeRes; r++ {
			if p.covered[n][r] && p.freeAt[n][r] > h {
				h = p.freeAt[n][r]
			}
		}
	}
	return h
}

// handlerNodes returns the global node ids with any covered resource.
func (p *Profile) handlerNodes() []int {
	var out []int
	for n := range p.covered {
		for r := NodeRes(0); r < NumNodeRes; r++ {
			if p.covered[n][r] {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// pct renders a share as a percentage.
func pct(num, den sim.Time) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// WriteReport renders the full profile: P-node buckets, handler-class cycle
// accounting, mesh-link utilization with wait percentiles, and the ASCII
// link-utilization heatmap.
func (p *Profile) WriteReport(w io.Writer) {
	label := p.meta
	if label == "" {
		label = "run"
	}
	fmt.Fprintf(w, "profile: %s, exec %d cycles\n", label, p.exec)

	if p.nPSet > 0 {
		var sum [NumPClasses]sim.Time
		for n := range p.pn {
			if !p.isP[n] {
				continue
			}
			for c := PClass(0); c < NumPClasses; c++ {
				sum[c] += p.pn[n][c]
			}
		}
		total := p.exec * sim.Time(p.nPSet)
		fmt.Fprintf(w, "P-nodes (%d):", p.nPSet)
		for c := PClass(0); c < NumPClasses; c++ {
			fmt.Fprintf(w, " %s %.1f%%", c, pct(sum[c], total))
		}
		fmt.Fprintln(w)
	}

	if hn := p.handlerNodes(); len(hn) > 0 {
		fmt.Fprintf(w, "handler cycles (%d protocol nodes):\n", len(hn))
		fmt.Fprintf(w, "  %-11s %12s %12s %12s %12s %7s\n", "class", "proc", "mem", "disk", "total", "share")
		var grand sim.Time
		var byClass [NumHandlerClasses][NumNodeRes]sim.Time
		for _, n := range hn {
			for r := NodeRes(0); r < NumNodeRes; r++ {
				for c := HandlerClass(0); c < NumHandlerClasses; c++ {
					byClass[c][r] += p.nodes[n][r][c]
					grand += p.nodes[n][r][c]
				}
			}
		}
		for c := HandlerClass(0); c < NumHandlerClasses; c++ {
			var tot sim.Time
			for r := NodeRes(0); r < NumNodeRes; r++ {
				tot += byClass[c][r]
			}
			if tot == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-11s %12d %12d %12d %12d %6.1f%%\n",
				c, byClass[c][ResProc], byClass[c][ResMem], byClass[c][ResDisk], tot, pct(tot, grand))
		}
		// Busy vs idle of the protocol processors against the run horizon.
		hz := p.horizon()
		var minU, maxU, sumU float64
		nProc := 0
		for _, n := range hn {
			if !p.covered[n][ResProc] {
				continue
			}
			u := pct(p.busy[n][ResProc], hz)
			if nProc == 0 || u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
			sumU += u
			nProc++
		}
		if nProc > 0 {
			fmt.Fprintf(w, "  proc busy avg %.1f%% (min %.1f%% max %.1f%%) of %d-cycle horizon\n",
				sumU/float64(nProc), minU, maxU, hz)
		}
	}

	if p.meshW > 0 {
		var busy, waited sim.Time
		var acq uint64
		for i := range p.linkBusy {
			busy += p.linkBusy[i]
			waited += p.linkWaited[i]
			acq += p.linkAcq[i]
		}
		hz := p.horizon()
		den := sim.Time(len(p.linkBusy)) * hz
		fmt.Fprintf(w, "mesh %dx%d: %d link acquisitions, avg link util %.1f%%, queued %d cycles\n",
			p.meshW, p.meshH, acq, pct(busy, den), waited)
		fmt.Fprintf(w, "  wait p50 %d  p90 %d  p99 %d cycles (%d hops observed, %d sampled)\n",
			p.WaitPercentile(0.50), p.WaitPercentile(0.90), p.WaitPercentile(0.99),
			p.hopCount, min64u(p.sHead, uint64(len(p.samples))))
		p.writeHeatmap(w)
	}
}

func min64u(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// heatShades maps a utilization decile to a glyph.
const heatShades = " .:-=+*#%@"

// writeHeatmap renders per-node outgoing-link utilization as a W×H grid.
func (p *Profile) writeHeatmap(w io.Writer) {
	hz := p.horizon()
	if hz == 0 || p.meshW == 0 {
		return
	}
	fmt.Fprintf(w, "  outgoing-link utilization heatmap (shades %q = 0..100%%):\n", heatShades)
	for y := 0; y < p.meshH; y++ {
		fmt.Fprint(w, "    ")
		for x := 0; x < p.meshW; x++ {
			node := y*p.meshW + x
			var busy sim.Time
			for d := 0; d < 4; d++ {
				busy += p.linkBusy[node*4+d]
			}
			frac := float64(busy) / (4 * float64(hz))
			idx := int(frac * float64(len(heatShades)))
			if idx >= len(heatShades) {
				idx = len(heatShades) - 1
			}
			if idx == 0 && busy > 0 {
				idx = 1 // any traffic at all stays visible
			}
			fmt.Fprintf(w, "%c", heatShades[idx])
		}
		fmt.Fprintln(w)
	}
}

// StatusText renders the report to a string (dashboard section).
func (p *Profile) StatusText() string {
	var b strings.Builder
	p.WriteReport(&b)
	return b.String()
}

// WriteFolded writes the cycle attribution as collapsed stacks — one
// "frame;frame;leaf count" line per bucket — loadable by speedscope and
// inferno (flamegraph.pl-compatible folded format). Counts are sim cycles.
func (p *Profile) WriteFolded(w io.Writer) error {
	root := p.meta
	if root == "" {
		root = "pimdsm"
	}
	var lines []string
	var sum [NumPClasses]sim.Time
	for n := range p.pn {
		if !p.isP[n] {
			continue
		}
		for c := PClass(0); c < NumPClasses; c++ {
			sum[c] += p.pn[n][c]
		}
	}
	for c := PClass(0); c < NumPClasses; c++ {
		if sum[c] > 0 {
			lines = append(lines, fmt.Sprintf("%s;pnode;%s %d", root, c, sum[c]))
		}
	}
	for _, n := range p.handlerNodes() {
		for r := NodeRes(0); r < NumNodeRes; r++ {
			for c := HandlerClass(0); c < NumHandlerClasses; c++ {
				if v := p.nodes[n][r][c]; v > 0 {
					lines = append(lines, fmt.Sprintf("%s;node%d;%s;%s %d", root, n, r, c, v))
				}
			}
		}
	}
	var linkBusy, linkWait sim.Time
	for i := range p.linkBusy {
		linkBusy += p.linkBusy[i]
		linkWait += p.linkWaited[i]
	}
	if linkBusy > 0 {
		lines = append(lines, fmt.Sprintf("%s;mesh;transfer %d", root, linkBusy))
	}
	if linkWait > 0 {
		lines = append(lines, fmt.Sprintf("%s;mesh;queued %d", root, linkWait))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// CritPath is the critical-path extraction over a run's retired spans: which
// phase — and therefore which machine resource — bounds end-to-end
// transaction latency.
type CritPath struct {
	Total    sim.Time // cycles across all retired spans
	Phase    [NumPhases]sim.Time
	Top      Phase
	TopShare float64 // Top's fraction of Total
	Resource string  // the resource the top phase runs on
}

// phaseResource names the machine resource each span phase waits on.
func phaseResource(p Phase) string {
	switch p {
	case PhaseIssue:
		return "P-node issue + local memory"
	case PhaseNetRequest:
		return "mesh (request path)"
	case PhaseDirOcc:
		return "protocol processor (directory occupancy)"
	case PhaseOwnerFetch:
		return "owner/master node memory"
	case PhaseNetReply:
		return "mesh (reply path)"
	case PhaseRetire:
		return "invalidation/ack collection"
	}
	return p.String()
}

// CriticalPathOf aggregates a span recorder over both directions and all
// satisfaction classes and returns the dominant phase.
func CriticalPathOf(s *Spans) CritPath {
	var cp CritPath
	for _, wr := range [2]bool{false, true} {
		for c := proto.LatClass(0); c < proto.NumLatClasses; c++ {
			for ph := Phase(0); ph < NumPhases; ph++ {
				v := s.PhaseCycles(wr, c, ph)
				cp.Phase[ph] += v
				cp.Total += v
			}
		}
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if cp.Phase[ph] > cp.Phase[cp.Top] {
			cp.Top = ph
		}
	}
	if cp.Total > 0 {
		cp.TopShare = float64(cp.Phase[cp.Top]) / float64(cp.Total)
	}
	cp.Resource = phaseResource(cp.Top)
	return cp
}

// String renders the extraction as one line.
func (cp CritPath) String() string {
	return fmt.Sprintf("critical path: %s (%s), %.0f%% of %d transaction cycles",
		cp.Top, cp.Resource, 100*cp.TopShare, cp.Total)
}
