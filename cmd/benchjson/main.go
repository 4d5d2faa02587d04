// Command benchjson measures wall-clock simulator throughput on the full
// evaluation matrix — every application on every machine organization — and
// emits one JSON document to stdout. `make bench-json` redirects it into
// BENCH_<date>.json; committing those snapshots over time builds the
// performance trajectory of the simulator itself. Throughput is
// host-dependent, so the date, Go version, CPU count and GOMAXPROCS are
// recorded alongside every snapshot, and each run carries its own GOMAXPROCS
// so later analysis never has to guess a row's provenance. The document is
// the obs.BenchDoc schema that `make bench-diff` and `figures -exp timeline`
// parse.
//
// Usage:
//
//	benchjson [-scale 1.0] [-threads 32] [-repeat 2]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"pimdsm"
	"pimdsm/internal/obs"
)

// gitCommit resolves the working tree's HEAD, "-dirty" suffixed when the
// tree has uncommitted changes. Best-effort: any failure returns "".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	if commit == "" {
		return ""
	}
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil &&
		len(strings.TrimSpace(string(status))) > 0 {
		commit += "-dirty"
	}
	return commit
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	threads := flag.Int("threads", 32, "application threads")
	repeat := flag.Int("repeat", 2, "runs per configuration (best wall time wins)")
	flag.Parse()

	doc := obs.BenchDoc{
		Date:       time.Now().Format("2006-01-02"),
		Commit:     gitCommit(),
		Go:         runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      *scale,
		Threads:    *threads,
		Repeat:     *repeat,
	}
	for _, app := range pimdsm.Apps() {
		for _, arch := range []pimdsm.Arch{pimdsm.NUMA, pimdsm.COMA, pimdsm.AGG} {
			cfg := pimdsm.Config{
				Arch: arch, App: pimdsm.App(app, *scale),
				Threads: *threads, Pressure: 0.75, DRatio: 1,
			}
			var res *pimdsm.Result
			best := time.Duration(1<<63 - 1)
			for n := 0; n < *repeat; n++ {
				start := time.Now()
				r, err := pimdsm.Run(cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchjson:", err)
					return 1
				}
				if d := time.Since(start); d < best {
					best = d
				}
				res = r
			}
			exec := uint64(res.Breakdown.Exec)
			doc.Runs = append(doc.Runs, obs.BenchRun{
				Arch: string(arch), App: app,
				GoMaxProcs:   runtime.GOMAXPROCS(0),
				WallMs:       float64(best.Microseconds()) / 1000,
				ExecCycles:   exec,
				CyclesPerSec: float64(exec) / best.Seconds(),
			})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	return 0
}
