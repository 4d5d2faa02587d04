package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"pimdsm"
)

// matrixSetupReps is how many times the matrix sets up; setup_s is the
// median.
const matrixSetupReps = 5

// runMatrix simulates the 7 apps x {NUMA, COMA, AGG} paper-scale matrix
// serially in one goroutine, so the numbers measure the simulator and not
// a scheduler. The seed only orders the 21 runs: every simulation is
// deterministic from its config. Whole passes repeat while another pass
// still fits in the run's seconds; at least one pass always runs.
func runMatrix(o runOpts) *report {
	rep := newReport()
	rng := rand.New(rand.NewPCG(o.seed, 0x6d6174726978))

	var setups []float64
	var order []pimdsm.Config
	for i := 0; i < matrixSetupReps; i++ {
		t0 := time.Now()
		order = matrixConfigs()
		// Warm-up: one small simulation pages in the simulator and grows
		// the heap before anything is timed.
		if _, err := pimdsm.Run(pimdsm.Config{
			Arch: pimdsm.AGG, App: pimdsm.App("fft", 0.1), Threads: 16, Pressure: 0.75, DRatio: 1,
		}); err != nil {
			rep.setupFailed(err)
			return rep
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		prof     *profiler
		runTimes samples
		passes   []float64
		archRun  = map[string]time.Duration{}
		archExec = map[string]uint64{}
		hops     uint64
		messages uint64
	)
	if o.trace {
		prof = startProfiler()
	}
	m := startMeter()
	for {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		p0 := time.Now()
		for _, cfg := range order {
			rep.Attempted++
			t0 := time.Now()
			r, err := pimdsm.Run(cfg)
			d := time.Since(t0)
			if err != nil {
				rep.fail(1, fmt.Sprintf("%s/%s: %v", cfg.Arch, cfg.App.Name, err))
				continue
			}
			runTimes = append(runTimes, d)
			st := statsOf(r)
			if err := o.ref.checkRun(st); err != nil {
				rep.fail(1, err.Error())
				continue
			}
			archRun[st.Arch] += d
			archExec[st.Arch] += st.ExecCycles
			hops += st.MeshHops
			messages += st.MeshMessages
		}
		passes = append(passes, time.Since(p0).Seconds())
		last := passes[len(passes)-1]
		if time.Since(m.start).Seconds()+last > o.seconds.Seconds() {
			break
		}
	}
	m.stop()
	n := float64(len(passes))

	rep.notef("matrix: %d pass(es) of %d runs, seed %d", len(passes), len(order), o.seed)
	rep.notef("setup_s reps %s", fmtSeconds(setups))
	rep.notef("%s", runTimes.describe("run latency median", 50))
	rep.notef("%s", runTimes.describe("run latency tail", runTimes.tail()))
	if !o.trace {
		rep.set("setup_s", "s", median(setups))
		rep.set("wall_s", "s", median(passes))
		rep.set("cpu_s", "s", m.cpuUsed/n)
		rep.set("alloc_mb", "MB", m.allocMB/n)
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		// A matrix operation is regenerating the whole matrix. The median
		// of 21 unlike runs would jump between configurations whose times
		// differ by 12%.
		rep.set("lat_p50_ms", "ms", 1000*median(passes))
		return rep
	}

	layers, err := prof.stop()
	if err != nil {
		rep.fail(1, "profile: "+err.Error())
		return rep
	}
	setLayerShares(rep, layers, m, n)
	if hops > 0 {
		rep.set("sim.resource.ns_per_hop", "ns", layers.selfNanos("sim.resource")/float64(hops))
	}
	rep.set("mesh.messages", "count", float64(messages)/n)
	rep.set("mesh.hops", "count", float64(hops)/n)
	for _, arch := range []pimdsm.Arch{pimdsm.NUMA, pimdsm.COMA, pimdsm.AGG} {
		a := string(arch)
		rep.set("machine.run_s."+a, "s", archRun[a].Seconds()/n)
		if archRun[a] > 0 {
			rep.set("machine.sim_mcycles_per_s."+a, "Mcycles/s", float64(archExec[a])/archRun[a].Seconds()/1e6)
		}
	}
	return rep
}
