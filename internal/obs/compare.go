package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"pimdsm/internal/proto"
)

// This file is the cross-run perf-diff engine: serializable snapshots of the
// deep-telemetry recorders (Profile, Spans, Registry), Compare over two such
// snapshots with significance thresholds, and Timeline over the committed
// BENCH_*.json series. Everything here is cold-path analysis — nothing runs
// while a simulation records, so the record-only and zero-alloc guarantees
// of the recorders are untouched.

// ProfileSnapshot is the machine-readable aggregate of a Profile: the cycle
// totals a diff needs, without the per-node and per-link detail the live
// report renders. Snapshots from several runs merge additively (Merge), so a
// multi-configuration job folds into one artifact. JSON field order is fixed
// and maps marshal with sorted keys, so the serialized form is deterministic.
type ProfileSnapshot struct {
	Label string `json:"label,omitempty"`
	// ExecCycles sums the measured windows of every merged run.
	ExecCycles uint64 `json:"exec_cycles"`
	// PNodes counts P-nodes folded in (summed across merged runs).
	PNodes int `json:"p_nodes"`
	// PCycles maps PClass label -> total cycles across P-nodes and runs.
	// Per run the buckets sum to exec × nodes, so shares are comparable
	// across runs of different lengths.
	PCycles map[string]uint64 `json:"p_cycles,omitempty"`
	// HandlerCycles maps HandlerClass label -> cycles across all covered
	// node resources — the D-node occupancy split of the paper's argument.
	HandlerCycles map[string]uint64 `json:"handler_cycles,omitempty"`
	// MeshBusyCycles and MeshQueuedCycles total the link accounting.
	MeshBusyCycles   uint64 `json:"mesh_busy_cycles,omitempty"`
	MeshQueuedCycles uint64 `json:"mesh_queued_cycles,omitempty"`
	// Hops counts link acquisitions observed.
	Hops uint64 `json:"hops,omitempty"`
}

// SnapshotProfile folds a completed Profile into its serializable aggregate.
func SnapshotProfile(p *Profile) *ProfileSnapshot {
	s := &ProfileSnapshot{
		Label:         p.meta,
		ExecCycles:    uint64(p.exec),
		PCycles:       map[string]uint64{},
		HandlerCycles: map[string]uint64{},
		Hops:          p.hopCount,
	}
	for n := range p.pn {
		if !p.isP[n] {
			continue
		}
		s.PNodes++
		for c := PClass(0); c < NumPClasses; c++ {
			s.PCycles[c.String()] += uint64(p.pn[n][c])
		}
	}
	for _, n := range p.handlerNodes() {
		for r := NodeRes(0); r < NumNodeRes; r++ {
			for c := HandlerClass(0); c < NumHandlerClasses; c++ {
				if v := p.nodes[n][r][c]; v > 0 {
					s.HandlerCycles[c.String()] += uint64(v)
				}
			}
		}
	}
	for i := range p.linkBusy {
		s.MeshBusyCycles += uint64(p.linkBusy[i])
		s.MeshQueuedCycles += uint64(p.linkWaited[i])
	}
	return s
}

// Merge folds another snapshot into s (additive on every total).
func (s *ProfileSnapshot) Merge(o *ProfileSnapshot) {
	if o == nil {
		return
	}
	if s.Label == "" {
		s.Label = o.Label
	} else if o.Label != "" && s.Label != o.Label {
		s.Label += "+" + o.Label
	}
	s.ExecCycles += o.ExecCycles
	s.PNodes += o.PNodes
	for k, v := range o.PCycles {
		if s.PCycles == nil {
			s.PCycles = map[string]uint64{}
		}
		s.PCycles[k] += v
	}
	for k, v := range o.HandlerCycles {
		if s.HandlerCycles == nil {
			s.HandlerCycles = map[string]uint64{}
		}
		s.HandlerCycles[k] += v
	}
	s.MeshBusyCycles += o.MeshBusyCycles
	s.MeshQueuedCycles += o.MeshQueuedCycles
	s.Hops += o.Hops
}

// SpanBreakdown is the serializable aggregate of a span recorder: average
// cycles per retired transaction attributed to each protocol phase, summed
// over both directions and all satisfaction classes — the decomposition the
// figure drivers print, in diffable form.
type SpanBreakdown struct {
	Label   string  `json:"label,omitempty"`
	Retired uint64  `json:"retired"`
	Bad     uint64  `json:"bad,omitempty"`
	AvgLat  float64 `json:"avg_lat"`
	// Phases maps Phase label -> average cycles per transaction. The values
	// sum to AvgLat because every span's buckets sum to its latency.
	Phases map[string]float64 `json:"phases"`
	// Queued is the mesh-link queueing overlay (inside the phases, not
	// additional latency).
	Queued float64 `json:"queued,omitempty"`
}

// SnapshotSpans aggregates a recorder over both directions and all
// satisfaction classes into its serializable breakdown.
func SnapshotSpans(s *Spans) *SpanBreakdown {
	b := &SpanBreakdown{
		Retired: s.Retired(),
		Bad:     s.Bad(),
		Phases:  map[string]float64{},
	}
	if b.Retired == 0 {
		return b
	}
	n := float64(b.Retired)
	for _, wr := range [2]bool{false, true} {
		for c := proto.LatClass(0); c < proto.NumLatClasses; c++ {
			for p := Phase(0); p < NumPhases; p++ {
				v := float64(s.PhaseCycles(wr, c, p)) / n
				b.Phases[p.String()] += v
				b.AvgLat += v
			}
			b.Queued += float64(s.QueuedCycles(wr, c)) / n
		}
	}
	return b
}

// ParseMetricsJSON flattens a Registry.WriteJSON document into scalars:
// counters and gauges under their own names, histograms as name.count and
// name.sum. The flat map is what Compare diffs.
func ParseMetricsJSON(data []byte) (map[string]float64, error) {
	var doc struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("obs: bad metrics JSON: %w", err)
	}
	out := make(map[string]float64, len(doc.Metrics))
	for name, raw := range doc.Metrics {
		var v float64
		if json.Unmarshal(raw, &v) == nil {
			out[name] = v
			continue
		}
		var h struct {
			Count uint64 `json:"count"`
			Sum   uint64 `json:"sum"`
		}
		if json.Unmarshal(raw, &h) == nil {
			out[name+".count"] = float64(h.Count)
			out[name+".sum"] = float64(h.Sum)
		}
	}
	return out, nil
}

// RunDump is one run's flight-recorder state as Compare consumes it. Any of
// the three sections may be nil/empty; Compare diffs what both sides have.
type RunDump struct {
	Label   string             `json:"label"`
	Spans   *SpanBreakdown     `json:"spans,omitempty"`
	Profile *ProfileSnapshot   `json:"profile,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// CompareOptions tunes significance. The zero value picks the defaults.
type CompareOptions struct {
	// MinRel is the relative-change significance threshold (default 0.05:
	// a bucket must move ≥5% of its A-side value, or appear/disappear).
	MinRel float64
	// MinShare ignores buckets contributing less than this fraction of
	// their section's total on both sides (default 0.01). Noise floors out.
	MinShare float64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.MinRel <= 0 {
		o.MinRel = 0.05
	}
	if o.MinShare <= 0 {
		o.MinShare = 0.01
	}
	return o
}

// DeltaRow is one diffed quantity. Rel is (B-A)/A (±Inf encoded as ±1e30
// when A is zero and B isn't, so the row still marshals as JSON).
type DeltaRow struct {
	Name        string  `json:"name"`
	A           float64 `json:"a"`
	B           float64 `json:"b"`
	Delta       float64 `json:"delta"`
	Rel         float64 `json:"rel"`
	Significant bool    `json:"significant,omitempty"`
}

// CompareReport is the typed outcome of diffing two runs. Rows within each
// section are ordered by |Delta| descending, so the first significant row of
// Phases is the dominant mover.
type CompareReport struct {
	LabelA string `json:"label_a"`
	LabelB string `json:"label_b"`

	// Phases diffs average cycles per transaction per protocol phase
	// (from the span decompositions).
	Phases []DeltaRow `json:"phases,omitempty"`
	// AvgLat diffs the end-to-end average transaction latency.
	AvgLat *DeltaRow `json:"avg_lat,omitempty"`
	// PShares diffs P-node bucket shares (percent of exec) and HandlerShares
	// the D-node handler-class shares (percent of handler cycles), both from
	// the profile snapshots.
	PShares       []DeltaRow `json:"p_shares,omitempty"`
	HandlerShares []DeltaRow `json:"handler_shares,omitempty"`
	// Metrics diffs the flattened metric registries.
	Metrics []DeltaRow `json:"metrics,omitempty"`

	// DominantPhase names the phase with the largest significant average-
	// cycle increase (the "dominant regressed phase"); empty when no phase
	// regressed significantly. DominantResource is the machine resource that
	// phase runs on; Verdict is the one-line human summary.
	DominantPhase    string `json:"dominant_phase,omitempty"`
	DominantResource string `json:"dominant_resource,omitempty"`
	Verdict          string `json:"verdict"`
}

// bigRel stands in for an infinite relative change (A was zero) so reports
// stay valid JSON.
const bigRel = 1e30

func deltaRow(name string, a, b float64) DeltaRow {
	r := DeltaRow{Name: name, A: a, B: b, Delta: b - a}
	switch {
	case a != 0:
		r.Rel = (b - a) / a
	case b > 0:
		r.Rel = bigRel
	case b < 0:
		r.Rel = -bigRel
	}
	return r
}

// diffMaps diffs two name->value maps: one row per name present on either
// side, significance from opt, ordered by |Delta| descending (ties by name).
func diffMaps(a, b map[string]float64, opt CompareOptions) []DeltaRow {
	var totalA, totalB float64
	for _, v := range a {
		totalA += v
	}
	for _, v := range b {
		totalB += v
	}
	names := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		names[k] = struct{}{}
	}
	for k := range b {
		names[k] = struct{}{}
	}
	rows := make([]DeltaRow, 0, len(names))
	for name := range names {
		r := deltaRow(name, a[name], b[name])
		share := 0.0
		if totalA > 0 {
			share = abs(r.A) / totalA
		}
		if totalB > 0 && abs(r.B)/totalB > share {
			share = abs(r.B) / totalB
		}
		r.Significant = share >= opt.MinShare && abs(r.Rel) >= opt.MinRel
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		di, dj := abs(rows[i].Delta), abs(rows[j].Delta)
		if di != dj {
			return di > dj
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// shares converts cycle totals to percent-of-total, so runs of different
// lengths diff on where the cycles went rather than how many there were.
func shares(m map[string]uint64) map[string]float64 {
	var total uint64
	for _, v := range m {
		total += v
	}
	out := make(map[string]float64, len(m))
	if total == 0 {
		return out
	}
	for k, v := range m {
		out[k] = 100 * float64(v) / float64(total)
	}
	return out
}

// Compare diffs two runs' flight-recorder dumps: span phase decompositions
// (average cycles per transaction), profile bucket shares, and metric
// registries, applying opt's significance thresholds and naming the dominant
// regressed phase. Sections missing from either dump are skipped.
func Compare(a, b RunDump, opt CompareOptions) *CompareReport {
	opt = opt.withDefaults()
	rep := &CompareReport{LabelA: a.Label, LabelB: b.Label}
	if rep.LabelA == "" {
		rep.LabelA = "A"
	}
	if rep.LabelB == "" {
		rep.LabelB = "B"
	}

	if a.Spans != nil && b.Spans != nil {
		rep.Phases = diffMaps(a.Spans.Phases, b.Spans.Phases, opt)
		al := deltaRow("avg-lat", a.Spans.AvgLat, b.Spans.AvgLat)
		al.Significant = abs(al.Rel) >= opt.MinRel
		rep.AvgLat = &al
	}
	if a.Profile != nil && b.Profile != nil {
		rep.PShares = diffMaps(shares(a.Profile.PCycles), shares(b.Profile.PCycles), opt)
		rep.HandlerShares = diffMaps(shares(a.Profile.HandlerCycles), shares(b.Profile.HandlerCycles), opt)
	}
	if len(a.Metrics) > 0 && len(b.Metrics) > 0 {
		rep.Metrics = diffMaps(a.Metrics, b.Metrics, opt)
	}

	// The dominant regressed phase: largest significant per-transaction
	// cycle increase. Falls back to the largest significant mover in either
	// direction, then to "no significant phase delta".
	var regressed, mover *DeltaRow
	for i := range rep.Phases {
		r := &rep.Phases[i]
		if !r.Significant {
			continue
		}
		if mover == nil {
			mover = r
		}
		if r.Delta > 0 && regressed == nil {
			regressed = r
		}
	}
	switch {
	case regressed != nil:
		rep.DominantPhase = regressed.Name
		rep.DominantResource = phaseResourceByName(regressed.Name)
		rep.Verdict = fmt.Sprintf("dominant regressed phase: %s (%+.1f cycles/txn, %s) — %s",
			regressed.Name, regressed.Delta, relString(regressed.Rel), rep.DominantResource)
	case mover != nil:
		rep.DominantPhase = mover.Name
		rep.DominantResource = phaseResourceByName(mover.Name)
		rep.Verdict = fmt.Sprintf("dominant phase delta: %s improved (%+.1f cycles/txn, %s) — %s",
			mover.Name, mover.Delta, relString(mover.Rel), rep.DominantResource)
	case rep.Phases != nil:
		rep.Verdict = "no significant phase delta"
	default:
		rep.Verdict = "no span decomposition on both sides; phase verdict unavailable"
	}
	return rep
}

// phaseResourceByName resolves a phase display name back to the machine
// resource it waits on (see phaseResource).
func phaseResourceByName(name string) string {
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() == name {
			return phaseResource(p)
		}
	}
	return name
}

func relString(rel float64) string {
	if rel >= bigRel {
		return "new"
	}
	if rel <= -bigRel {
		return "gone"
	}
	return fmt.Sprintf("%+.1f%%", 100*rel)
}

// WriteText renders the report as aligned columns. Sections are elided when
// empty; insignificant metric rows are summarized rather than listed.
func (r *CompareReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "perf diff: %s -> %s\n", r.LabelA, r.LabelB)
	writeSection := func(title, unit string, rows []DeltaRow, keepAll bool) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s (%s):\n", title, unit)
		fmt.Fprintf(w, "  %-24s %14s %14s %12s %10s\n", "name", r.LabelA, r.LabelB, "delta", "rel")
		hidden := 0
		for _, row := range rows {
			if !keepAll && !row.Significant {
				hidden++
				continue
			}
			mark := " "
			if row.Significant {
				mark = "*"
			}
			fmt.Fprintf(w, "%s %-24s %14.2f %14.2f %+12.2f %10s\n",
				mark, row.Name, row.A, row.B, row.Delta, relString(row.Rel))
		}
		if hidden > 0 {
			fmt.Fprintf(w, "  (%d insignificant rows hidden)\n", hidden)
		}
	}
	writeSection("phase decomposition", "avg cycles/txn", r.Phases, true)
	if r.AvgLat != nil {
		fmt.Fprintf(w, "  %-26s %14.2f %14.2f %+12.2f %10s\n",
			"end-to-end avg latency", r.AvgLat.A, r.AvgLat.B, r.AvgLat.Delta, relString(r.AvgLat.Rel))
	}
	writeSection("P-node buckets", "% of exec", r.PShares, true)
	writeSection("D-node handler classes", "% of handler cycles", r.HandlerShares, true)
	writeSection("metrics", "value", r.Metrics, false)
	fmt.Fprintf(w, "\n%s\n", r.Verdict)
}

// --- BENCH_*.json trajectory ---

// BenchRun is one cmd/benchjson measurement row. GoMaxProcs is optional
// provenance (absent in snapshots before 2026-08-08); Shards is only present
// in snapshots written while benchjson recorded a shard count.
type BenchRun struct {
	Arch         string  `json:"arch"`
	App          string  `json:"app"`
	Shards       int     `json:"shards,omitempty"`
	GoMaxProcs   int     `json:"gomaxprocs,omitempty"`
	WallMs       float64 `json:"wall_ms"`
	ExecCycles   uint64  `json:"exec_cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// BenchDoc is one BENCH_<date>.json snapshot, the document cmd/benchjson
// encodes. Header fields added over time (gomaxprocs, shards, repeat) are
// optional so the earliest snapshots still parse; shards is no longer
// written.
type BenchDoc struct {
	Date       string     `json:"date"`
	Commit     string     `json:"commit,omitempty"`
	Go         string     `json:"go"`
	CPUs       int        `json:"cpus"`
	GoMaxProcs int        `json:"gomaxprocs,omitempty"`
	Scale      float64    `json:"scale"`
	Threads    int        `json:"threads"`
	Shards     int        `json:"shards,omitempty"`
	Repeat     int        `json:"repeat,omitempty"`
	Runs       []BenchRun `json:"runs"`
}

// ParseBenchDoc parses and validates one BENCH snapshot: it must carry a
// date and at least one run, and every run needs an arch, an app and a
// positive wall time. Malformed snapshots are an error, never a silent skip
// — `make bench-diff` is advisory about perf but strict about file health.
func ParseBenchDoc(data []byte) (*BenchDoc, error) {
	var doc BenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("obs: bad BENCH snapshot: %w", err)
	}
	if doc.Date == "" {
		return nil, fmt.Errorf("obs: BENCH snapshot has no date")
	}
	if len(doc.Runs) == 0 {
		return nil, fmt.Errorf("obs: BENCH snapshot %s has no runs", doc.Date)
	}
	for i, r := range doc.Runs {
		if r.Arch == "" || r.App == "" {
			return nil, fmt.Errorf("obs: BENCH snapshot %s run %d missing arch or app", doc.Date, i)
		}
		if r.WallMs <= 0 {
			return nil, fmt.Errorf("obs: BENCH snapshot %s run %d (%s/%s) has non-positive wall_ms", doc.Date, i, r.Arch, r.App)
		}
	}
	return &doc, nil
}

// TimelinePoint is one snapshot's measurement of a (arch, app) pair.
type TimelinePoint struct {
	Date         string  `json:"date"`
	Commit       string  `json:"commit,omitempty"`
	Scale        float64 `json:"scale"`
	WallMs       float64 `json:"wall_ms"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// TimelineSeries is one (arch, app) pair's trajectory across snapshots, in
// date order. Regressed flags a significant throughput drop between the two
// newest points; Note explains caveats (e.g. the workload scale changed, so
// wall times are not comparable — cycles/sec still roughly are).
type TimelineSeries struct {
	Arch      string          `json:"arch"`
	App       string          `json:"app"`
	Points    []TimelinePoint `json:"points"`
	Regressed bool            `json:"regressed,omitempty"`
	Note      string          `json:"note,omitempty"`
}

// TimelineReport is the cross-snapshot perf trajectory: one series per
// (arch, app) pair plus the flagged regressions.
type TimelineReport struct {
	Threshold   float64          `json:"threshold"`
	Series      []TimelineSeries `json:"series"`
	Regressions []string         `json:"regressions,omitempty"`
}

// Timeline builds the per-(arch, app) trajectory across BENCH snapshots and
// flags pairs whose simulator throughput (cycles/sec) dropped by more than
// threshold (default 0.10) between the two newest snapshots covering the
// pair. Host throughput is noisy and machine-dependent, so the flags are
// advisory — the report is for reading, not for failing CI.
func Timeline(docs []*BenchDoc, threshold float64) *TimelineReport {
	if threshold <= 0 {
		threshold = 0.10
	}
	sorted := append([]*BenchDoc(nil), docs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Date < sorted[j].Date })

	type key struct{ arch, app string }
	series := map[key]*TimelineSeries{}
	var order []key
	for _, doc := range sorted {
		for _, r := range doc.Runs {
			k := key{r.Arch, r.App}
			s := series[k]
			if s == nil {
				s = &TimelineSeries{Arch: r.Arch, App: r.App}
				series[k] = s
				order = append(order, k)
			}
			s.Points = append(s.Points, TimelinePoint{
				Date: doc.Date, Commit: doc.Commit, Scale: doc.Scale,
				WallMs: r.WallMs, CyclesPerSec: r.CyclesPerSec,
			})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].arch != order[j].arch {
			return order[i].arch < order[j].arch
		}
		return order[i].app < order[j].app
	})

	rep := &TimelineReport{Threshold: threshold}
	for _, k := range order {
		s := series[k]
		if n := len(s.Points); n >= 2 {
			prev, last := s.Points[n-2], s.Points[n-1]
			if prev.Scale != last.Scale {
				s.Note = fmt.Sprintf("scale changed %g -> %g; wall times not comparable", prev.Scale, last.Scale)
			}
			if prev.CyclesPerSec > 0 {
				drop := (prev.CyclesPerSec - last.CyclesPerSec) / prev.CyclesPerSec
				if drop > threshold {
					s.Regressed = true
					rep.Regressions = append(rep.Regressions,
						fmt.Sprintf("%s/%s: cycles/sec %.3g -> %.3g (-%.0f%%) between %s and %s",
							k.arch, k.app, prev.CyclesPerSec, last.CyclesPerSec, 100*drop, prev.Date, last.Date))
				}
			}
		}
		rep.Series = append(rep.Series, *s)
	}
	return rep
}

// WriteText renders the trajectory as one aligned block per (arch, app)
// pair, flagged regressions last.
func (r *TimelineReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "bench timeline (%d series, regression threshold %.0f%% cycles/sec drop):\n",
		len(r.Series), 100*r.Threshold)
	fmt.Fprintf(w, "  %-5s %-8s %-10s %7s %12s %14s %s\n",
		"arch", "app", "date", "scale", "wall_ms", "cycles/sec", "")
	for _, s := range r.Series {
		for i, p := range s.Points {
			flag := ""
			if i == len(s.Points)-1 && s.Regressed {
				flag = "  << REGRESSED"
			}
			fmt.Fprintf(w, "  %-5s %-8s %-10s %7g %12.2f %14.3g%s\n",
				s.Arch, s.App, p.Date, p.Scale, p.WallMs, p.CyclesPerSec, flag)
		}
		if s.Note != "" {
			fmt.Fprintf(w, "        note: %s\n", s.Note)
		}
	}
	if len(r.Regressions) == 0 {
		fmt.Fprintf(w, "\nno throughput regressions beyond the %.0f%% threshold\n", 100*r.Threshold)
		return
	}
	fmt.Fprintf(w, "\n%d flagged regression(s) — advisory, host throughput is machine-dependent:\n", len(r.Regressions))
	for _, reg := range r.Regressions {
		fmt.Fprintf(w, "  %s\n", reg)
	}
}

// StatusText renders the report to a string (dashboard / log embedding).
func (r *TimelineReport) StatusText() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}
