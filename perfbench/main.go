// Command perfbench is the repository's benchmark: three workloads run
// against the public functions of the simulator and the service, every
// output checked against a committed reference.
//
//	perfbench --workload matrix|service|cluster --seed N --seconds S --trace 0|1
//	perfbench suite [--seed N] [--seconds S]    every workload, untraced then traced
//	perfbench compare A B                       diff two runs' metrics
//	perfbench reference COMMIT                  regenerate reference.json
//
// Untraced runs print the end-to-end metrics; traced runs add a CPU
// profile folded into per-layer self time and print the per-layer metrics.
// The last line of standard output is always one JSON result object. The
// exit status is non-zero when any operation failed. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runOpts configures one workload run.
type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	ref      *reference
	hooks    hooks
}

// hooks inject faults in the benchmark's own tests; zero values change
// nothing.
type hooks struct {
	queueLimit int      // admission window of every node
	run        runBatch // batch runner of every node
	afterSetup func()   // called once set-up is done, before the timed part
}

var workloads = map[string]func(runOpts) *report{
	"matrix":  runMatrix,
	"service": runService,
	"cluster": runCluster,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, hooks{}, nil))
}

// realMain runs the command; ref overrides the committed oracle when
// non-nil.
func realMain(args []string, stdout, stderr io.Writer, h hooks, ref *reference) int {
	if len(args) > 0 {
		switch args[0] {
		case "suite":
			return suite(args[1:], stdout, stderr)
		case "compare":
			return compare(args[1:], stdout, stderr)
		case "reference":
			if len(args) != 2 {
				fmt.Fprintln(stderr, "usage: perfbench reference COMMIT > reference.json")
				return 2
			}
			if err := writeReference(stdout, args[1]); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			return 0
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "matrix, service or cluster")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "length of the timed part")
	trace := fs.Int("trace", 0, "1: CPU profile and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload matrix|service|cluster, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if ref == nil {
		var err error
		if ref, err = loadReference(referenceJSON); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	rep := run(runOpts{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		ref:      ref,
		hooks:    h,
	})
	if *trace == 1 {
		fillCatalog(rep)
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}
