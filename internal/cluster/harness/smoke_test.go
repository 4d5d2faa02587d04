package harness

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"pimdsm"
	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
	"pimdsm/internal/serve"
)

// smokeBatch is the paper's Figure 6 configuration set at test scale — the
// same batch the single-node smoke test simulates.
func smokeBatch(t *testing.T) []serve.ConfigSpec {
	t.Helper()
	batch := pimdsm.Figure6Specs("fft", 4, 0.02)
	if len(batch) < 3 {
		t.Fatalf("Figure6Specs returned %d configs", len(batch))
	}
	return batch
}

func batchKeys(t *testing.T, batch []serve.ConfigSpec, seed uint64) []uint64 {
	t.Helper()
	seen := make(map[uint64]bool)
	keys := make([]uint64, len(batch))
	for i, cs := range batch {
		keys[i] = cs.Key(seed)
		if seen[keys[i]] {
			t.Fatalf("batch keys not distinct: %016x repeats", keys[i])
		}
		seen[keys[i]] = true
	}
	return keys
}

// submitWait pushes specs through the front door at addr and returns the
// per-config result bytes, after checking the job's resolution accounting.
func submitWait(t *testing.T, addr, name string, specs []serve.ConfigSpec) []string {
	t.Helper()
	cl := serve.NewClient(addr)
	st, err := cl.Submit(serve.JobSpec{Name: name, Configs: specs})
	if err != nil {
		t.Fatalf("%s: submit: %v", name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err = cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("%s: wait: %v", name, err)
	}
	if st.State != serve.JobDone {
		t.Fatalf("%s: job %s finished %s (%s), want done", name, st.ID, st.State, st.Error)
	}
	events, err := cl.JobEvents(st.ID)
	if err != nil {
		t.Fatalf("%s: events: %v", name, err)
	}
	checkSettled(t, name, st, events)
	_, raw, err := cl.Result(st.ID)
	if err != nil {
		t.Fatalf("%s: result: %v", name, err)
	}
	out := make([]string, len(raw))
	for i := range raw {
		out[i] = string(raw[i])
	}
	return out
}

// checkSettled asserts a finished job's lifecycle chain is complete and
// every config settled exactly one way.
func checkSettled(t *testing.T, name string, st serve.JobStatus, events []svclog.JobEvent) {
	t.Helper()
	if err := serve.ValidateEventChain(events, st.Total); err != nil {
		t.Fatalf("%s: job %s event chain: %v", name, st.ID, err)
	}
	if got := st.CacheHits + st.Simulated + st.Joins + st.Forwarded; got != st.Total {
		t.Fatalf("%s: job %s settled %d configs (hits %d, simulated %d, joins %d, forwarded %d), want %d",
			name, st.ID, got, st.CacheHits, st.Simulated, st.Joins, st.Forwarded, st.Total)
	}
}

// singleNode starts a plain cluster-less daemon — the byte-identity
// reference every cluster answer must match.
func singleNode(t *testing.T) string {
	t.Helper()
	srv, err := serve.New(serve.Options{Events: svclog.NewEventLog(0)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closeHTTP := serve.NewAPI(srv, nil).Serve(ln)
	t.Cleanup(func() {
		closeHTTP()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

func assertSameResults(t *testing.T, phase string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", phase, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: config %d result bytes differ from single-node reference:\n got %s\nwant %s",
				phase, i, got[i], want[i])
		}
	}
}

// TestClusterSmoke is the ISSUE's acceptance path: a 3-node cluster serves
// the Figure 6 batch byte-identically through every front door with
// cluster-wide exactly-once simulation, survives the hot-key owner being
// killed mid-life, and recovers the restarted owner from replicas without a
// single re-simulation.
func TestClusterSmoke(t *testing.T) {
	c, err := Start("smoke", Options{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitAlive(3, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	batch := smokeBatch(t)
	keys := batchKeys(t, batch, 0)
	ref := submitWait(t, singleNode(t), "reference", batch)

	// Phase 1: the same batch through every front door. Every door answers
	// with the single-node bytes, and the cluster as a whole simulated each
	// distinct key exactly once no matter how many doors it entered.
	for i, addr := range c.Addrs {
		got := submitWait(t, addr, fmt.Sprintf("door-%d", i), batch)
		assertSameResults(t, fmt.Sprintf("door %d", i), ref, got)
	}
	if got := c.SimulatedRuns(); got != uint64(len(keys)) {
		t.Fatalf("exactly-once: %d engine runs across the cluster for %d distinct keys", got, len(keys))
	}

	// Phase 2: replication settles — with N=3 and R=2 every node ends up
	// holding every key, and the peer counters agree across the cluster
	// (every forward served was sent by someone, every replica received was
	// pushed by someone, nothing failed).
	if !Wait(15*time.Second, func() bool {
		for _, n := range c.Live() {
			for _, k := range keys {
				if !n.Srv.Cache().Contains(k) {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatal("replication did not settle: some node is missing a key")
	}
	if !Wait(10*time.Second, func() bool {
		var fSent, fServed, rSent, rRecv, failed uint64
		for _, cs := range c.ClusterStats() {
			fSent += cs.ForwardsSent
			fServed += cs.ForwardsServed
			rSent += cs.ReplicasSent
			rRecv += cs.ReplicasReceived
			failed += cs.ForwardsFailed + cs.ReplicasFailed + cs.StealsFailed + cs.StealsRequeued
		}
		return failed == 0 && fSent == fServed && rSent == rRecv && rSent > 0
	}) {
		t.Fatalf("cluster counters never settled consistent: %+v", c.ClusterStats())
	}

	// Phase 3: kill the owner of the batch's first key. The survivors keep
	// answering from their replicas — same bytes, zero new simulations.
	ownerAddr, self := c.Node(0).Peer.Owner(keys[0])
	if self {
		ownerAddr = c.Addrs[0]
	}
	victim := c.Index(ownerAddr)
	if victim < 0 {
		t.Fatalf("owner %s of key %016x is not a cluster member", ownerAddr, keys[0])
	}
	survivor := c.Addrs[(victim+1)%len(c.Addrs)]
	var survivorRuns uint64
	for _, n := range c.Live() {
		if n.Addr != ownerAddr {
			survivorRuns += n.Srv.Stats().SimulatedRuns
		}
	}
	if err := c.Kill(victim); err != nil {
		t.Fatalf("kill node %d: %v", victim, err)
	}
	if err := c.WaitAlive(2, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	got := submitWait(t, survivor, "after-kill", batch)
	assertSameResults(t, "after kill", ref, got)
	if runs := c.SimulatedRuns(); runs != survivorRuns {
		t.Fatalf("kill re-simulated: survivors ran %d engine runs, had %d before", runs, survivorRuns)
	}

	// Phase 4: restart the victim on the same address — fresh cache, fresh
	// incarnation. It rejoins, refutes its death rumor, and serves the batch
	// through its own front door by recovering owned keys from the replicas
	// its successors kept: byte-identical and still zero new simulations.
	if err := c.Restart(victim); err != nil {
		t.Fatalf("restart node %d: %v", victim, err)
	}
	if err := c.WaitAlive(3, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	preRestart := c.SimulatedRuns()
	got = submitWait(t, c.Addrs[victim], "after-restart", batch)
	assertSameResults(t, "after restart", ref, got)
	if runs := c.SimulatedRuns(); runs != preRestart {
		t.Fatalf("restart re-simulated: %d engine runs, had %d", runs, preRestart)
	}
	rcs := c.Node(victim).Srv.Stats().Cluster
	if rcs == nil || rcs.Recoveries == 0 {
		t.Fatalf("restarted owner answered its own keys without replica recovery: %+v", rcs)
	}

	// The restarted node's metrics endpoint exports the cluster families.
	resp, err := http.Get("http://" + c.Addrs[victim] + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"aggsimd_cluster_members_alive 3",
		"aggsimd_cluster_recoveries_total",
		"aggsimd_cluster_forwards_sent_total",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("/metrics.prom missing %q", want)
		}
	}
}

// TestClusterCrossOwnership submits one two-config job at both doors of a
// 2-node cluster at once, each door owning one of the two keys. A door that
// waited on its peer before simulating the key it owns would park inside the
// other owner's /cluster/compute handler, which joins the flight that door's
// own job holds: a cross-node wait cycle that only the peer timeout breaks.
// Both jobs must finish promptly, with each key simulated exactly once.
func TestClusterCrossOwnership(t *testing.T) {
	c, err := Start("cross", Options{N: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitAlive(2, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	batch := smokeBatch(t)[:2]
	doors := []*Node{c.Node(0), c.Node(1)}
	owns := func(n *Node, key uint64) bool {
		_, self := n.Peer.Owner(key)
		return self
	}

	const rounds = 3
	found := 0
	for seed := uint64(1); found < rounds && seed < 1000; seed++ {
		if !owns(doors[0], batch[0].Key(seed)) || !owns(doors[1], batch[1].Key(seed)) {
			continue
		}
		found++
		before := c.SimulatedRuns()
		var jobs []*serve.Job
		for i, n := range doors {
			st, err := n.Srv.Submit(serve.JobSpec{
				Name: fmt.Sprintf("cross-%d-door-%d", seed, i), Seed: seed, Configs: batch,
			})
			if err != nil {
				t.Fatalf("seed %d door %d: submit: %v", seed, i, err)
			}
			j, _ := n.Srv.Job(st.ID)
			jobs = append(jobs, j)
		}
		timeout := time.After(10 * time.Second)
		for i, j := range jobs {
			select {
			case <-j.Done():
			case <-timeout:
				t.Fatalf("seed %d: door %d job stalled (%d engine runs so far)",
					seed, i, c.SimulatedRuns()-before)
			}
			if st := doors[i].Srv.Status(j); st.State != serve.JobDone {
				t.Fatalf("seed %d door %d: job finished %s (%s)", seed, i, st.State, st.Error)
			}
		}
		if runs := c.SimulatedRuns() - before; runs != 2 {
			t.Fatalf("seed %d: %d engine runs for 2 distinct keys", seed, runs)
		}
	}
	if found < rounds {
		t.Fatalf("only %d seeds split the two keys across the doors", found)
	}
}

// TestClusterWorkStealing parks a deliberately slow single-worker node
// behind a pile of queued jobs and checks its idle peers steal, execute and
// report them back — every distinct key still simulated exactly once.
func TestClusterWorkStealing(t *testing.T) {
	slow := func(cfgs []machine.Config, onResult func(int, *machine.Result)) ([]*machine.Result, error) {
		time.Sleep(150 * time.Millisecond)
		out := make([]*machine.Result, len(cfgs))
		for i := range cfgs {
			r, err := machine.Run(cfgs[i])
			if err != nil {
				return nil, err
			}
			out[i] = r
			if onResult != nil {
				onResult(i, r)
			}
		}
		return out, nil
	}
	c, err := Start("steal", Options{N: 3, Workers: 1, Run: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitAlive(3, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	// Two seeds double the distinct key set: every job is one config, every
	// key unique, all submitted to node 0 directly (no ownership redirect),
	// so they pile up in its queue while nodes 1 and 2 sit idle.
	batch := smokeBatch(t)
	victim := c.Node(0)
	var jobs []*serve.Job
	var total int
	for seed := uint64(1); seed <= 2; seed++ {
		for i, cs := range batch {
			st, err := victim.Srv.Submit(serve.JobSpec{
				Name:    fmt.Sprintf("steal-%d-%d", seed, i),
				Seed:    seed,
				Configs: []serve.ConfigSpec{cs},
			})
			if err != nil {
				t.Fatalf("submit seed %d config %d: %v", seed, i, err)
			}
			j, ok := victim.Srv.Job(st.ID)
			if !ok {
				t.Fatalf("job %s vanished after submit", st.ID)
			}
			jobs = append(jobs, j)
			total++
		}
	}

	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job did not finish; cluster stats %+v", c.ClusterStats())
		}
	}
	for _, j := range jobs {
		if _, raw, ok := victim.Srv.Results(j); !ok || len(raw) != 1 || len(raw[0]) == 0 {
			t.Fatalf("a stolen or local job finished without a result (ok=%v)", ok)
		}
		st := victim.Srv.Status(j)
		checkSettled(t, st.Name, st, victim.Srv.Events().Job(st.ID))
	}

	if got := c.SimulatedRuns(); got != uint64(total) {
		t.Fatalf("exactly-once under stealing: %d engine runs for %d distinct keys", got, total)
	}
	// Steal accounting balances at quiescence: every loan was taken, every
	// taken loan completed, nothing timed out back into the queue.
	if !Wait(10*time.Second, func() bool {
		var given, taken, completed, failed, requeued uint64
		for _, cs := range c.ClusterStats() {
			given += cs.StealsGiven
			taken += cs.StealsTaken
			completed += cs.StealsCompleted
			failed += cs.StealsFailed
			requeued += cs.StealsRequeued
		}
		return given >= 1 && given == taken && taken == completed && failed == 0 && requeued == 0
	}) {
		t.Fatalf("steal counters never balanced: %+v", c.ClusterStats())
	}
}
