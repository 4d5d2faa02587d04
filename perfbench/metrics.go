package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number: value and unit, as the result line
// carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome. Metrics holds the machine-readable set (the
// end-to-end metrics untraced, the per-layer metrics traced); notes holds
// the human-readable lines printed before the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts n failed operations and records why (only the first few
// reasons of each run are printed).
func (r *report) fail(n int, why string) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if r.Failed-n < 8 {
		r.notef("FAIL: %s", why)
	}
}

// setupFailed counts a failed set-up as one failed operation.
func (r *report) setupFailed(err error) {
	r.Attempted++
	r.fail(1, "setup: "+err.Error())
}

// write prints the notes, a metric table, and the result line last.
func (r *report) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, n := range r.notes {
		fmt.Fprintln(bw, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(bw, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// samples is a set of durations reported as a median plus the highest
// percentile the sample supports.
type samples []time.Duration

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supports reports whether percentile p (0..100) has at least minBeyond
// samples beyond it.
func (s samples) supports(p float64) bool {
	return float64(len(s))*(1-p/100) >= minBeyond-1e-9
}

// percentile returns the nearest-rank percentile p in milliseconds.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := int(math.Ceil(p / 100 * float64(len(c))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(c) {
		rank = len(c)
	}
	return float64(c[rank-1].Nanoseconds()) / 1e6
}

// tail is the highest percentile with at least minBeyond samples beyond
// it, 0 when even the median is unsupported.
func (s samples) tail() float64 {
	if !s.supports(50) {
		return 0
	}
	return 100 * (1 - float64(minBeyond)/float64(len(s)))
}

// describe renders one percentile with its sample count, or refuses it.
func (s samples) describe(name string, p float64) string {
	if !s.supports(p) {
		return fmt.Sprintf("%-22s refused: n=%d leaves fewer than %d samples beyond p%g", name, len(s), minBeyond, p)
	}
	return fmt.Sprintf("%-22s %10.3f ms  (p%g of n=%d)", name, s.percentile(p), p, len(s))
}

// ms reports percentile p when the sample supports it, 0 otherwise.
func (s samples) ms(p float64) float64 {
	if !s.supports(p) {
		return 0
	}
	return s.percentile(p)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set in MiB (ru_maxrss, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter brackets the timed part of a run: wall, CPU, bytes and objects
// allocated.
type meter struct {
	start   time.Time
	cpu     float64
	mem     runtime.MemStats
	elapsed time.Duration
	cpuUsed float64
	allocMB float64
	mallocs uint64
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuSeconds()
	m.start = time.Now()
	return m
}

func (m *meter) stop() {
	m.elapsed = time.Since(m.start)
	m.cpuUsed = cpuSeconds() - m.cpu
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m.allocMB = float64(end.TotalAlloc-m.mem.TotalAlloc) / (1 << 20)
	m.mallocs = end.Mallocs - m.mem.Mallocs
}

// median of a non-empty float slice.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func fmtSeconds(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	return b.String()
}
