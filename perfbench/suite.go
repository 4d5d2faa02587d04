package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// suite runs every workload untraced and then traced, each in its own
// process, prints both outputs, and reports the tracing overhead: traced
// CPU time minus untraced CPU time.
func suite(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "length of each timed part")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range []string{"matrix", "service", "cluster"} {
		var res [2]*report
		for trace := 0; trace < 2; trace++ {
			fmt.Fprintf(stdout, "== %s, trace %d\n", w, trace)
			var out bytes.Buffer
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(*seed, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(trace))
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stdout, "%s trace %d: %v\n", w, trace, err)
				code = 1
			}
			if res[trace], err = lastResult(out.Bytes()); err != nil {
				fmt.Fprintf(stdout, "%s trace %d: %v\n", w, trace, err)
				code = 1
			}
		}
		if res[0] != nil && res[1] != nil {
			cpu, traced := res[0].Metrics["cpu_s"].Value, res[1].Metrics["trace.cpu_s"].Value
			fmt.Fprintf(stdout, "== %s tracing overhead: %.3f s CPU (traced %.3f s, untraced %.3f s, %+.1f%%)\n\n",
				w, traced-cpu, traced, cpu, 100*(traced-cpu)/cpu)
		}
	}
	return code
}

// lastResult parses the JSON result object on the last non-empty line.
func lastResult(out []byte) (*report, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 || lines[len(lines)-1] == "" {
		return nil, errors.New("no result line")
	}
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &r, nil
}

// compare diffs the metrics of two saved runs (their standard output),
// metric by metric, so a change can show which layer its saving came from.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare A B   (files holding two runs' output)")
		return 2
	}
	var rs [2]*report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			rs[i], err = lastResult(data)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 1
		}
	}
	writeDiff(stdout, rs[0], rs[1])
	return 0
}

// writeDiff prints every metric of either run, by name, with both values
// and the relative change.
func writeDiff(w io.Writer, a, b *report) {
	names := map[string]bool{}
	for n := range a.Metrics {
		names[n] = true
	}
	for n := range b.Metrics {
		names[n] = true
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "%-34s %14s %14s %9s  %s\n", "metric", "A", "B", "change", "unit")
	for _, n := range sorted {
		ma, okA := a.Metrics[n]
		mb, okB := b.Metrics[n]
		unit := ma.Unit
		if !okA {
			unit = mb.Unit
		}
		change := "n/a"
		if okA && okB && ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/math.Abs(ma.Value))
		}
		fmt.Fprintf(w, "%-34s %14s %14s %9s  %s\n", n, value(ma, okA), value(mb, okB), change, unit)
	}
	fmt.Fprintf(w, "%-34s %14d %14d\n", "failed", a.Failed, b.Failed)
}

func value(m metric, ok bool) string {
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(m.Value, 'g', 6, 64)
}
