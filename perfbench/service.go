package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"pimdsm"
)

const (
	// hitScale sizes the warmed hit universe, the misses and the Figure 6
	// batches; burstScale sizes the cluster burst's jobs. Both are small
	// enough that misses stay well below saturation on two CPUs.
	hitScale     = 0.02
	burstScale   = 0.05
	smallThreads = 8

	// sloLimit is the latency limit every service request is held to.
	sloLimit = 250 * time.Millisecond
	// grace is how long after the last due time requests may still finish.
	grace = 20 * time.Second
	// serviceSetupReps is how many times the service workloads set up;
	// setup_s is the median.
	serviceSetupReps = 5
)

// mixRates is an open-loop traffic mix in requests per second of schedule.
type mixRates struct {
	hits, misses       float64
	fig6Hits, fig6Miss float64
	dupShare           float64 // duplicates of misses, as a share of misses
}

// plan builds the open-loop schedule for span seconds: a Poisson stream
// conditioned on its request count (uniform arrival times), so every seed
// offers exactly the same work. Hits draw from the warmed universe; misses
// cycle whole passes over it with fresh seeds — a seed enters the cache key but not the result, so a
// miss costs the same simulation whatever seed it carries. Duplicates
// repeat a miss 2 ms later to join its flight; doors are seeded.
func plan(rng *rand.Rand, mix mixRates, universe []pimdsm.ConfigSpec, span time.Duration, doors int, prefix string) []*request {
	sec := span.Seconds()
	var reqs []*request
	add := func(class string, spec pimdsm.JobSpec) *request {
		r := &request{name: fmt.Sprintf("%s-%s-%d", prefix, class, len(reqs)), class: class, spec: spec,
			door: rng.IntN(doors)}
		r.spec.Name = r.name
		reqs = append(reqs, r)
		return r
	}
	count := func(rate float64) int { return int(math.Round(rate * sec)) }
	for i := 0; i < count(mix.hits); i++ {
		cs := universe[rng.IntN(len(universe))]
		add("hit", pimdsm.JobSpec{Configs: []pimdsm.ConfigSpec{cs}})
	}
	passes := max(1, int(math.Round(mix.misses*sec/float64(len(universe)))))
	var misses []*request
	for p := 0; p < passes; p++ {
		for _, cs := range universe {
			misses = append(misses, add("miss", pimdsm.JobSpec{Seed: freshSeed(rng), Configs: []pimdsm.ConfigSpec{cs}}))
		}
	}
	batches := figure6Batches()
	for i := 0; i < count(mix.fig6Hits); i++ {
		add("fig6-hit", pimdsm.JobSpec{Configs: batches[i%len(batches)]})
	}
	for i := 0; i < count(mix.fig6Miss); i++ {
		// fft's batch is the cheapest: seven short simulations that still
		// span the owners, without saturating both CPUs for long.
		add("fig6-miss", pimdsm.JobSpec{Seed: freshSeed(rng), Configs: batches[0]})
	}
	// Hits arrive as a Poisson stream; the simulating requests arrive on a
	// jittered grid (one per equal slot, in seeded order), so every seed
	// offers the same spacing of simulations instead of its own pile-ups.
	var sims []*request
	for _, r := range reqs {
		if r.class == "hit" {
			r.due = time.Duration(rng.Float64() * float64(span))
		} else {
			sims = append(sims, r)
		}
	}
	rng.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
	for k, r := range sims {
		r.due = time.Duration((float64(k) + rng.Float64()) / float64(len(sims)) * float64(span))
	}
	nDup := int(math.Round(mix.dupShare * float64(len(misses))))
	for _, i := range rng.Perm(len(misses))[:nDup] {
		orig := misses[i]
		d := add("dup", pimdsm.JobSpec{Seed: orig.spec.Seed, Configs: orig.spec.Configs})
		d.due = orig.due + 2*time.Millisecond
	}
	return reqs
}

// freshSeed draws a job seed that no warmed key uses (those use seed 0).
func freshSeed(rng *rand.Rand) uint64 { return rng.Uint64() | 1 }

// serviceRun is one service or cluster run's shared state.
type serviceRun struct {
	o     runOpts
	rep   *report
	nodes []*node
	reqs  []*request // phase A: the open-loop mix
	burst []*request // phase B (cluster only)

	setups   []float64
	before   []pimdsm.ServerStats
	after    []pimdsm.ServerStats
	meter    *meter
	burstDur time.Duration
	maxOut   int
}

// setUp starts n nodes and warms the hit universe, serviceSetupReps times
// (all but the last set-up are torn down again); the first timed request
// can be issued when it returns.
func (sr *serviceRun) setUp(n, workers int, universe []pimdsm.ConfigSpec) error {
	h := sr.o.hooks
	no := nodeOpts{workers: workers, queueLimit: h.queueLimit, run: h.run}
	for i := 0; i < serviceSetupReps; i++ {
		t0 := time.Now()
		nodes, err := startNodes(n, no)
		if err != nil {
			return err
		}
		// Half the default admission window, and never more than the
		// configured one.
		window := 8
		if no.queueLimit > 0 {
			window = min(window, no.queueLimit)
		}
		if err := warm(nodes, universe, window); err != nil {
			stopNodes(nodes)
			return err
		}
		sr.setups = append(sr.setups, time.Since(t0).Seconds())
		if i < serviceSetupReps-1 {
			stopNodes(nodes)
			continue
		}
		sr.nodes = nodes
	}
	if h.afterSetup != nil {
		h.afterSetup()
	}
	return nil
}

func (sr *serviceRun) snapshot() []pimdsm.ServerStats {
	out := make([]pimdsm.ServerStats, len(sr.nodes))
	for i, nd := range sr.nodes {
		out[i] = nd.srv.Stats()
	}
	return out
}

// runService drives one in-process node, configured like a default
// aggsimd, over loopback HTTP with an open-loop Poisson stream: mostly hits
// on a warmed key universe (the HTTP and serve edge dominate those), a
// fixed minority of misses with fresh seeds (each runs a small simulation)
// and a few duplicates that join a miss in flight. Workers resolve hits
// too, so a hit can queue behind running simulations.
func runService(o runOpts) *report {
	sr := &serviceRun{o: o, rep: newReport()}
	rng := rand.New(rand.NewPCG(o.seed, 0x73657276696365))
	universe := smallSpecs(hitScale, smallThreads)
	if err := sr.setUp(1, 2, universe); err != nil {
		sr.rep.setupFailed(err)
		return sr.rep
	}
	defer stopNodes(sr.nodes)
	sr.reqs = plan(rng, mixRates{hits: 75, misses: 6.3, dupShare: 0.1}, universe, o.seconds, 1, "s")
	sr.timed(func() { sr.drive(sr.reqs) })
	return sr.finish()
}

// runCluster drives three in-process nodes, one worker each. Phase A is
// the service mix entering at seeded doors plus multi-config Figure 6
// batches whose keys span owners: redirects, compute forwarding,
// replication and replica lookups. Phase B is a burst of whole-batch jobs
// all owned by one node, which leaves the other nodes idle unless they
// steal.
func runCluster(o runOpts) *report {
	const n = 3
	sr := &serviceRun{o: o, rep: newReport()}
	rng := rand.New(rand.NewPCG(o.seed, 0x636c7573746572))
	universe := smallSpecs(hitScale, smallThreads)
	warmSet := serviceSpecsAt(hitScale)
	if err := sr.setUp(n, 1, warmSet); err != nil {
		sr.rep.setupFailed(err)
		return sr.rep
	}
	defer stopNodes(sr.nodes)
	// Phase B takes about a second; phase A gets the rest but three.
	spanA := max(o.seconds-3*time.Second, o.seconds/2)
	sr.reqs = plan(rng, mixRates{hits: 90, misses: 7.4, fig6Hits: 1, fig6Miss: 0.3, dupShare: 0.1},
		universe, spanA, n, "c")
	sr.burst = burstPlan(rng, sr.nodes)
	sr.timed(func() {
		sr.drive(sr.reqs)
		t0 := time.Now()
		sr.drive(sr.burst)
		for _, r := range sr.burst {
			if r.err == nil {
				sr.burstDur = max(sr.burstDur, r.end.Sub(t0))
			}
		}
	})
	return sr.finish()
}

// serviceSpecsAt lists the distinct configurations at one scale that the
// cluster mix requests: the hit universe and the Figure 6 batches.
func serviceSpecsAt(scale float64) []pimdsm.ConfigSpec {
	var out []pimdsm.ConfigSpec
	for _, cs := range serviceSpecs() {
		if cs.Scale == scale {
			out = append(out, cs)
		}
	}
	return out
}

// burstPlan builds phase B: two jobs per application, each the NUMA, COMA
// and AGG configs of that application at burstScale, with fresh seeds
// chosen so that one seeded node owns every key. All are due at once.
func burstPlan(rng *rand.Rand, nodes []*node) []*request {
	victim := rng.IntN(len(nodes))
	specs := smallSpecs(burstScale, smallThreads)
	var out []*request
	for rep := 0; rep < 2; rep++ {
		for a := 0; a+3 <= len(specs); a += 3 {
			batch := specs[a : a+3]
			seed := freshSeed(rng)
			for !ownsAll(nodes, victim, batch, seed) {
				seed = freshSeed(rng)
			}
			name := fmt.Sprintf("b-%d", len(out))
			out = append(out, &request{name: name, class: "burst", door: rng.IntN(len(nodes)),
				spec: pimdsm.JobSpec{Name: name, Seed: seed, Configs: batch}})
		}
	}
	return out
}

func ownsAll(nodes []*node, victim int, batch []pimdsm.ConfigSpec, seed uint64) bool {
	for _, cs := range batch {
		if owner(nodes, cs.Key(seed)) != victim {
			return false
		}
	}
	return true
}

// drive runs one schedule to completion.
func (sr *serviceRun) drive(reqs []*request) {
	lg := newLoadgen(sr.nodes, sr.o.ref, reqs)
	lg.run(grace)
	sr.maxOut = max(sr.maxOut, lg.maxOut)
}

// timed measures body: wall, CPU and allocation, under a CPU profile when
// tracing, with the server counters snapshotted on both sides.
func (sr *serviceRun) timed(body func()) {
	var prof *profiler
	if sr.o.trace {
		prof = startProfiler()
	}
	sr.before = sr.snapshot()
	sr.meter = startMeter()
	body()
	sr.meter.stop()
	sr.after = sr.snapshot()
	if prof != nil {
		layers, err := prof.stop()
		if err != nil {
			sr.rep.fail(1, "profile: "+err.Error())
			return
		}
		setLayerShares(sr.rep, layers, sr.meter, 1)
	}
}

// finish checks every request and reports the metrics.
func (sr *serviceRun) finish() *report {
	rep := sr.rep
	var all, hits, misses, fwdHits, localHits samples
	var submitT, resultT, lag, queueWait, runHit, runMiss samples
	overSLO := 0
	for _, r := range append(append([]*request(nil), sr.reqs...), sr.burst...) {
		rep.Attempted++
		if r.err != nil {
			rep.fail(1, fmt.Sprintf("%s (%s): %v", r.name, r.class, r.err))
		}
		if r.submitDur > 0 {
			submitT = append(submitT, r.submitDur)
			lag = append(lag, max(r.lag, 0))
		}
		if r.resultDur > 0 {
			resultT = append(resultT, r.resultDur)
		}
		if r.class == "burst" {
			continue
		}
		if r.err != nil || r.latency > sloLimit {
			overSLO++
		}
		if r.err != nil {
			continue
		}
		all = append(all, r.latency)
		st := r.status
		var run time.Duration
		if st.StartedAt != nil && st.FinishedAt != nil {
			queueWait = append(queueWait, st.StartedAt.Sub(st.SubmittedAt))
			run = st.FinishedAt.Sub(*st.StartedAt)
		}
		if r.hit() {
			hits = append(hits, r.latency)
			runHit = append(runHit, run)
			if len(sr.nodes) > 1 {
				if owner(sr.nodes, r.spec.Configs[0].Key(r.spec.Seed)) == r.door {
					localHits = append(localHits, r.latency)
				} else {
					fwdHits = append(fwdHits, r.latency)
				}
			}
		} else {
			misses = append(misses, r.latency)
			runMiss = append(runMiss, run)
		}
	}
	phaseA := len(sr.reqs)
	sloFrac := 0.0
	if phaseA > 0 {
		sloFrac = float64(overSLO) / float64(phaseA)
	}
	m := sr.meter
	rep.notef("%s: %d requests (%d hits, %d misses) over %s, seed %d; %d burst jobs",
		sr.o.workload, phaseA, len(hits), len(misses), sr.o.seconds, sr.o.seed, len(sr.burst))
	rep.notef("setup_s reps %s", fmtSeconds(sr.setups))
	rep.notef("%s", all.describe("lat median", 50))
	rep.notef("%s", all.describe("lat tail", all.tail()))
	rep.notef("%s", hits.describe("hit_p50_ms", 50))
	rep.notef("%s", hits.describe("hit_p99_ms", 99))
	rep.notef("%s", misses.describe("miss_p50_ms", 50))
	rep.notef("%s", misses.describe("miss_p90_ms", 90))
	rep.notef("slo_miss_frac          %10.4f  (%d of %d over %s)", sloFrac, overSLO, phaseA, sloLimit)
	rep.notef("fail_frac              %10.4f  (%d of %d)", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	if len(sr.burst) > 0 {
		rep.notef("burst_makespan_s       %10.3f  (%d jobs)", sr.burstDur.Seconds(), len(sr.burst))
	}
	if m == nil {
		return rep
	}
	if !sr.o.trace {
		rep.set("setup_s", "s", median(sr.setups))
		rep.set("wall_s", "s", m.elapsed.Seconds())
		rep.set("cpu_s", "s", m.cpuUsed)
		rep.set("alloc_mb", "MB", m.allocMB)
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		rep.set("lat_p50_ms", "ms", all.ms(50))
		return rep
	}

	rep.set("http.submit_ms_p50", "ms", submitT.ms(50))
	rep.set("http.submit_ms_p99", "ms", submitT.ms(99))
	rep.set("http.result_ms_p50", "ms", resultT.ms(50))
	rep.set("serve.queue_wait_ms_p50", "ms", queueWait.ms(50))
	rep.set("serve.queue_wait_ms_p99", "ms", queueWait.ms(99))
	rep.set("serve.run_ms_p50_hit", "ms", runHit.ms(50))
	rep.set("serve.run_ms_p50_miss", "ms", runMiss.ms(50))
	rep.set("serve.hit_p50_ms", "ms", hits.ms(50))
	rep.set("serve.hit_p99_ms", "ms", hits.ms(99))
	rep.set("serve.miss_p50_ms", "ms", misses.ms(50))
	rep.set("serve.miss_p90_ms", "ms", misses.ms(90))
	rep.set("serve.hits", "count", float64(len(hits)))
	rep.set("serve.misses", "count", float64(len(misses)))
	rep.set("serve.slo_miss_frac", "ratio", sloFrac)
	rep.set("loadgen.lag_ms_p99", "ms", lag.ms(99))
	rep.set("loadgen.outstanding_max", "count", float64(sr.maxOut))

	var d struct {
		hits, misses, joins, sims, rejected                               uint64
		redirects, fwd, repl, lookups, lookMiss, recov, steals, stolenJob uint64
	}
	for i := range sr.nodes {
		a, b := sr.after[i], sr.before[i]
		d.hits += a.Cache.Hits - b.Cache.Hits
		d.misses += a.Cache.Misses - b.Cache.Misses
		d.joins += a.Cache.Joins - b.Cache.Joins
		d.sims += a.SimulatedRuns - b.SimulatedRuns
		d.rejected += a.JobsRejected - b.JobsRejected
		if a.Cluster != nil && b.Cluster != nil {
			ac, bc := a.Cluster, b.Cluster
			d.redirects += ac.Redirects - bc.Redirects
			d.fwd += ac.ForwardsSent - bc.ForwardsSent
			d.repl += ac.ReplicasSent - bc.ReplicasSent
			d.lookups += ac.LookupsServed + ac.LookupsMissed - bc.LookupsServed - bc.LookupsMissed
			d.lookMiss += ac.LookupsMissed - bc.LookupsMissed
			d.recov += ac.Recoveries - bc.Recoveries
			d.steals += ac.StealsCompleted - bc.StealsCompleted
		}
	}
	for _, r := range sr.burst {
		if r.status.StolenBy != "" {
			d.stolenJob++
		}
	}
	if lookups := d.hits + d.misses + d.joins; lookups > 0 {
		rep.set("serve.cache_hit_ratio", "ratio", float64(d.hits)/float64(lookups))
	}
	rep.set("serve.joins", "count", float64(d.joins))
	rep.set("serve.simulated_runs", "count", float64(d.sims))
	rep.set("serve.rejected", "count", float64(d.rejected))
	if len(sr.nodes) > 1 {
		rep.set("cluster.redirects", "count", float64(d.redirects))
		rep.set("cluster.forwards_sent", "count", float64(d.fwd))
		rep.set("cluster.replicas_sent", "count", float64(d.repl))
		rep.set("cluster.lookups_missed", "count", float64(d.lookMiss))
		rep.set("cluster.recoveries", "count", float64(d.recov))
		if d.lookups > 0 {
			rep.set("cluster.recovery_ratio", "ratio", float64(d.recov)/float64(d.lookups))
		}
		rep.set("cluster.steals_completed", "count", float64(d.steals))
		if len(sr.burst) > 0 {
			rep.set("cluster.steal_ratio", "ratio", float64(d.stolenJob)/float64(len(sr.burst)))
		}
		rep.set("cluster.fwd_hit_ms_p50", "ms", fwdHits.ms(50))
		rep.set("cluster.local_hit_ms_p50", "ms", localHits.ms(50))
		rep.set("cluster.burst_makespan_s", "s", sr.burstDur.Seconds())
	}
	return rep
}
