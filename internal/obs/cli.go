package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartPprof starts the requested pprof profiles (an empty path skips one)
// and returns a function that flushes them; it must run before the process
// exits, so a CLI's main returns an exit code instead of calling os.Exit
// directly.
func StartPprof(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

// WriteObservers flushes the requested trace and metrics artifacts: tr as
// Chrome trace_event JSON to chromePath and in the PDT1 binary form to
// binPath, reg as JSON to metricsPath (an empty path skips an artifact).
// Every artifact is written atomically, so a failed or interrupted writer
// never truncates a previous good one. A trace ring that overflowed is
// reported on stderr.
func WriteObservers(tr *Trace, reg *Registry, chromePath, binPath, metricsPath string) error {
	if chromePath != "" {
		if err := WriteFileAtomic(chromePath, tr.WriteChromeJSON); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "trace: ring full, oldest %d of %d events dropped (raise -trace-buf)\n", d, tr.Total())
		}
	}
	if binPath != "" {
		if err := WriteFileAtomic(binPath, tr.WriteBinary); err != nil {
			return fmt.Errorf("trace-bin: %w", err)
		}
	}
	if metricsPath != "" {
		if err := WriteFileAtomic(metricsPath, reg.WriteJSON); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	return nil
}
