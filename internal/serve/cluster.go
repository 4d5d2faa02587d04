package serve

// Cluster glue (DESIGN.md §15): this file builds the distributed service on
// top of internal/cluster's membership and ring. Three mechanisms, all
// byte-transparent to results:
//
//   - Compute-at-owner forwarding: a front door resolves configs whose keys
//     it does not own through the owning peer's /cluster/compute endpoint.
//     The owner's cache + singleflight act as the cluster-wide lock service,
//     so a key is simulated exactly once no matter how many doors it enters.
//   - Replication: a completed simulation is pushed to the key's R ring
//     successors, so any of R+1 nodes answers repeat queries after the owner
//     dies; a restarted owner checks its successors (replica recovery) before
//     burning a fresh simulation.
//   - Work stealing: an idle node polls a random alive peer for its worst
//     queued job, executes it (through the same owner-routing), and posts the
//     results back; the victim requeues the job if the thief goes silent.
//
// None of the three has a resolution path of its own. The front door (a
// worker's runJob), the owner side of /cluster/compute (route=false) and
// the thief (no job) all call server.go's resolve, whose fixed phase order —
// classify, simulate owned misses, forward, wait on joins — keeps waits
// across nodes acyclic; forward and recoverFromReplicas below are its
// peer-facing halves. Every outcome lands in its job through settle, and
// worker and stolen jobs end through the same finish.
//
// The peer endpoints sit outside tenant authentication; their admission check
// is the shared cluster name carried in the X-Aggsimd-Cluster header (and,
// for payload-bearing endpoints, the key-derivation check that also guards
// the persisted cache index). Without an attached node every cluster route is
// an inert 404 and no counter, stats field or metric family below exists —
// the single-node daemon stays byte-identical.

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
)

// Peer-protocol headers. clusterHeader names the cluster on every
// peer-to-peer request; forwardedHeader marks a submission that already
// followed one ownership redirect, so a front door never bounces a client a
// second time (no redirect loops).
const (
	clusterHeader   = "X-Aggsimd-Cluster"
	forwardedHeader = "X-Aggsimd-Forwarded"
)

// stealRequeueAfter is how long a stolen job may stay out before the victim
// assumes the thief died and requeues it locally. Generous on purpose: a
// premature requeue risks the same configs running twice (same bytes, wasted
// cycles), while a late one only delays a job whose thief crashed.
const stealRequeueAfter = 60 * time.Second

// clusterLoopEvery paces the background cluster loop (steal attempts and
// stolen-job requeue sweeps).
const clusterLoopEvery = 100 * time.Millisecond

// forwardFanout bounds the forwards one resolve keeps in flight. The peer
// client keeps as many idle connections per peer, so a fan-out to one owner
// reuses its connections instead of dialling and dropping one per burst.
const forwardFanout = 4

// stolenRecord tracks one job a peer is executing for us.
type stolenRecord struct {
	job      *Job
	thief    string
	deadline time.Time
}

// ClusterStats is the peer-layer section of ServerStats: the membership
// node's own snapshot plus the serve-level routing counters.
type ClusterStats struct {
	Node     cluster.Stats `json:"node"`
	Replicas int           `json:"replicas"`

	// Forwards: configs this front door resolved through an owning peer
	// (sent/failed), and forwarded computes this node served as owner.
	ForwardsSent   uint64 `json:"forwards_sent"`
	ForwardsFailed uint64 `json:"forwards_failed"`
	ForwardsServed uint64 `json:"forwards_served"`

	// Lookups: replica-cache probes served to recovering owners.
	LookupsServed uint64 `json:"lookups_served"`
	LookupsMissed uint64 `json:"lookups_missed"`

	// Replication: copies pushed to successors and copies received. Summed
	// across the cluster, sent == received once replication has settled.
	ReplicasSent     uint64 `json:"replicas_sent"`
	ReplicasFailed   uint64 `json:"replicas_failed"`
	ReplicasReceived uint64 `json:"replicas_received"`
	// Recoveries counts simulations this node avoided by pulling the result
	// from a replica instead (the exactly-once-across-restart mechanism).
	Recoveries uint64 `json:"recoveries"`

	// Work stealing, from both sides of the exchange.
	StealsGiven     uint64 `json:"steals_given"`
	StealsTaken     uint64 `json:"steals_taken"`
	StealsCompleted uint64 `json:"steals_completed"`
	StealsFailed    uint64 `json:"steals_failed"`
	StealsRequeued  uint64 `json:"steals_requeued"`
	StolenInFlight  int    `json:"stolen_in_flight"`

	// Redirects counts 421 Misdirected Request responses steering clients to
	// the owning peer.
	Redirects uint64 `json:"redirects"`
}

// clusterStatsLocked snapshots the cluster section; s.mu must be held. The
// node has its own mutex ordered strictly after s.mu (the node never calls
// back into the server).
func (s *Server) clusterStatsLocked() *ClusterStats {
	cs := s.cl
	cs.Node = s.cluster.Stats()
	cs.Replicas = s.cluster.Replicas()
	cs.StolenInFlight = len(s.stolen)
	return &cs
}

// AttachCluster joins the server to a cluster: the node's heartbeat loop
// starts and the background steal/requeue loop launches. Call once, before
// serving traffic; attaching after Shutdown began is a no-op.
func (s *Server) AttachCluster(node *cluster.Node) {
	s.mu.Lock()
	if s.cluster != nil || s.draining {
		s.mu.Unlock()
		return
	}
	s.cluster = node
	s.stolen = make(map[string]*stolenRecord)
	s.clusterStop = make(chan struct{})
	// Forwarded computes may simulate inline at the owner; the peer client
	// timeout must cover a full run, not just a cache probe.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = forwardFanout
	s.clusterHTTP = &http.Client{Timeout: 2 * time.Minute, Transport: tr}
	s.mu.Unlock()
	s.opt.Log.Info("cluster_attached", "cluster", node.Name(), "self", node.Self(),
		"replicas", node.Replicas())
	node.Start()
	s.clusterWG.Add(1)
	go s.clusterLoop()
}

// clusterNode returns the attached node (nil outside cluster mode).
func (s *Server) clusterNode() *cluster.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

func (s *Server) countCluster(fn func(*ClusterStats)) {
	s.mu.Lock()
	fn(&s.cl)
	s.mu.Unlock()
}

// stopCluster tears the peer layer down: the steal loop and heartbeats stop,
// in-flight replications drain, and jobs still held by thieves are aborted
// (their results, if any, were computed against the shared cache and are not
// lost — only this job's delivery is). Idempotent; called from Shutdown.
func (s *Server) stopCluster() {
	s.mu.Lock()
	node := s.cluster
	if node == nil || s.clusterClosed {
		s.mu.Unlock()
		return
	}
	s.clusterClosed = true
	s.mu.Unlock()
	close(s.clusterStop)
	node.Stop()
	s.clusterWG.Wait()
	s.mu.Lock()
	for id, rec := range s.stolen {
		delete(s.stolen, id)
		s.abortLocked(rec.job)
	}
	s.mu.Unlock()
}

// clusterLoop is the node's background cluster duty cycle: requeue stolen
// jobs whose thieves went silent, then steal from a peer if we are idle.
func (s *Server) clusterLoop() {
	defer s.clusterWG.Done()
	t := time.NewTicker(clusterLoopEvery)
	defer t.Stop()
	for {
		select {
		case <-s.clusterStop:
			return
		case <-t.C:
			s.requeueStolen(time.Now())
			s.trySteal()
		}
	}
}

// ---------------------------------------------------------------------------
// Peer HTTP plumbing

// peerDo performs one cluster-internal exchange. The cluster-name header is
// the peer endpoints' admission check (they sit outside tenant auth).
func (s *Server) peerDo(method, peer, path string, body []byte) (int, []byte, error) {
	node := s.clusterNode()
	if node == nil {
		return 0, nil, errors.New("serve: not clustered")
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+peer+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(clusterHeader, node.Name())
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.clusterHTTP.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// clip bounds an error payload for embedding in an error string.
func clip(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(bytes.TrimSpace(b))
}

// ---------------------------------------------------------------------------
// Forwarding and replica recovery (resolve's peer-facing halves)

// forward is resolve's phase 3: each peer-owned key goes to its owner's
// /cluster/compute, then down its replica successors, with at most
// forwardFanout requests in flight. A returned copy is kept: the front door
// converges toward the hot set its own clients ask for, so repeat queries
// stay local (LRU-bounded). Keys no peer answered — or whose replica set now
// holds this node — resolve here, after every forward has returned, through
// a route=false resolve: membership timeouts will reshuffle the ring
// shortly, and result bytes are identical wherever computed.
func (s *Server) forward(j *Job, node *cluster.Node, seed uint64, cfgs []ConfigSpec, remote []pending, on func(int, *machine.Result, []byte, string)) error {
	var (
		mu      sync.Mutex
		local   []int
		lastErr error
		wg      sync.WaitGroup
	)
	sem := make(chan struct{}, forwardFanout)
	for _, p := range remote {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, key uint64) {
			defer wg.Done()
			defer func() { <-sem }()
			owner, _ := node.Owner(key)
			var err error
			for _, peer := range append([]string{owner}, node.Successors(key, node.Replicas())...) {
				if peer == node.Self() {
					break // the ring moved: this node is in the key's replica set
				}
				s.countCluster(func(c *ClusterStats) { c.ForwardsSent++ })
				var res *machine.Result
				var js []byte
				if res, js, err = s.forwardCompute(peer, key, seed, cfgs[i]); err == nil {
					s.cache.Fulfill(key, seed, cfgs[i].canonical(), res, js)
					s.deliver(j, on, i, res, js, "forward")
					return
				}
				s.countCluster(func(c *ClusterStats) { c.ForwardsFailed++ })
			}
			mu.Lock()
			local = append(local, i)
			if err != nil {
				lastErr = err
			}
			mu.Unlock()
		}(p.i, p.key)
	}
	wg.Wait()
	if len(local) == 0 {
		return nil
	}
	sub := make([]ConfigSpec, len(local))
	for k, i := range local {
		sub[k] = cfgs[i]
	}
	err := s.resolve(j, seed, sub, false, func(k int, res *machine.Result, js []byte, how string) {
		s.deliver(j, on, local[k], res, js, how)
	})
	if err != nil && lastErr != nil {
		return fmt.Errorf("%w (after forward failure: %v)", err, lastErr)
	}
	return err
}

// clusterComputeRequest is the /cluster/compute wire format. Key is the
// sender's derivation in hex; the receiver re-derives and rejects a mismatch
// (version-skewed peers must fail loudly, not cache under colliding keys).
type clusterComputeRequest struct {
	Spec ConfigSpec `json:"spec"`
	Seed uint64     `json:"seed,omitempty"`
	Key  string     `json:"key"`
}

// forwardCompute asks peer to resolve one config; the response body is the
// canonical result JSON verbatim, so forwarding preserves byte identity.
func (s *Server) forwardCompute(peer string, key, seed uint64, cs ConfigSpec) (*machine.Result, []byte, error) {
	body, err := json.Marshal(clusterComputeRequest{
		Spec: cs, Seed: seed, Key: fmt.Sprintf("%016x", key),
	})
	if err != nil {
		return nil, nil, err
	}
	code, data, err := s.peerDo("POST", peer, "/api/v1/cluster/compute", body)
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("serve: peer %s compute: HTTP %d: %s", peer, code, clip(data))
	}
	var res machine.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, nil, fmt.Errorf("serve: peer %s compute: %w", peer, err)
	}
	return &res, data, nil
}

// recoverFromReplicas probes the key's successor set for a replicated copy
// (nothing to probe outside cluster mode, when node is nil).
func (s *Server) recoverFromReplicas(node *cluster.Node, key uint64) (*machine.Result, []byte, bool) {
	if node == nil {
		return nil, nil, false
	}
	for _, peer := range node.Successors(key, node.Replicas()) {
		if peer == node.Self() {
			continue
		}
		code, data, err := s.peerDo("GET", peer,
			fmt.Sprintf("/api/v1/cluster/lookup?key=%016x", key), nil)
		if err != nil || code != http.StatusOK {
			continue
		}
		var res machine.Result
		if err := json.Unmarshal(data, &res); err != nil {
			continue
		}
		s.countCluster(func(c *ClusterStats) { c.Recoveries++ })
		return &res, data, true
	}
	return nil, nil, false
}

// replicateAsync pushes a completed result to the key's owner (when this node
// is not it) and successors, in the persisted-index wire shape so receivers
// run the same verify-before-trust key check as a cache-file load. Fire and
// forget: replication is an availability optimization, never correctness —
// a missed replica only costs a recovery miss later.
func (s *Server) replicateAsync(key, seed uint64, cs ConfigSpec, js []byte) {
	s.mu.Lock()
	node := s.cluster
	if node == nil || s.clusterClosed {
		s.mu.Unlock()
		return
	}
	s.clusterWG.Add(1)
	s.mu.Unlock()
	targets := make(map[string]bool)
	if owner, self := node.Owner(key); !self {
		targets[owner] = true
	}
	for _, p := range node.Successors(key, node.Replicas()) {
		if p != node.Self() {
			targets[p] = true
		}
	}
	body, err := json.Marshal(indexEntry{
		Key: fmt.Sprintf("%016x", key), Seed: seed, Spec: cs, Result: json.RawMessage(js),
	})
	if len(targets) == 0 || err != nil {
		s.clusterWG.Done()
		return
	}
	go func() {
		defer s.clusterWG.Done()
		for peer := range targets {
			code, _, err := s.peerDo("POST", peer, "/api/v1/cluster/replicate", body)
			if err != nil || code/100 != 2 {
				s.countCluster(func(c *ClusterStats) { c.ReplicasFailed++ })
				continue
			}
			s.countCluster(func(c *ClusterStats) { c.ReplicasSent++ })
		}
	}()
}

// ---------------------------------------------------------------------------
// Ownership redirects (421)

// RedirectTarget decides whether a submission should bounce to a peer with
// 421 Misdirected Request: while draining, any alive peer keeps the cluster
// available through one node's restart; otherwise only when every config key
// has the same remote owner and none is cached here (a mixed-ownership batch
// is served better by this front door's fan-out). Submissions that already
// followed one redirect are never bounced again (the HTTP layer checks
// forwardedHeader before calling this).
func (s *Server) RedirectTarget(spec JobSpec) (peer, reason string, ok bool) {
	node := s.clusterNode()
	if node == nil {
		return "", "", false
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		peers := node.AlivePeers()
		if len(peers) == 0 {
			return "", "", false
		}
		s.countCluster(func(c *ClusterStats) { c.Redirects++ })
		return peers[rand.Intn(len(peers))], "draining", true
	}
	owner := ""
	for _, cs := range spec.Configs {
		key := cs.Key(spec.Seed)
		if s.cache.Contains(key) {
			return "", "", false
		}
		o, self := node.Owner(key)
		if self {
			return "", "", false
		}
		if owner == "" {
			owner = o
		} else if owner != o {
			return "", "", false
		}
	}
	if owner == "" {
		return "", "", false
	}
	s.countCluster(func(c *ClusterStats) { c.Redirects++ })
	return owner, "keys owned by peer", true
}

// ---------------------------------------------------------------------------
// Work stealing

// stealResponse hands one queued job to a thief.
type stealResponse struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
}

// stolenReport returns a stolen job's outcome to its victim. Results carry
// each config's canonical JSON verbatim; Hows says how the thief resolved
// each one (hit/join/forward/recovered/simulated).
type stolenReport struct {
	ID      string            `json:"id"`
	Error   string            `json:"error,omitempty"`
	Hows    []string          `json:"hows,omitempty"`
	Results []json.RawMessage `json:"results,omitempty"`
}

// stealJob pops the worst queued job (lowest priority, newest) for a thief.
// Jobs carrying run-time observers (spans, telemetry) are pinned: their
// artifacts must be recorded where the simulations execute. The job flips to
// running attributed to the thief; it does not occupy a local worker slot.
func (s *Server) stealJob(thief string) (stealResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || thief == "" || len(s.queue) == 0 {
		return stealResponse{}, false
	}
	worst := -1
	for i, j := range s.queue {
		if j.spans != nil || j.telemetry {
			continue
		}
		if worst == -1 ||
			j.spec.Priority < s.queue[worst].spec.Priority ||
			(j.spec.Priority == s.queue[worst].spec.Priority && j.seq > s.queue[worst].seq) {
			worst = i
		}
	}
	if worst == -1 {
		return stealResponse{}, false
	}
	j := heap.Remove(&s.queue, worst).(*Job)
	j.state = JobRunning
	j.started = time.Now()
	j.stolenBy = thief
	s.stolen[j.id] = &stolenRecord{job: j, thief: thief, deadline: time.Now().Add(stealRequeueAfter)}
	s.cl.StealsGiven++
	if s.opt.Tenants != nil && j.spec.Tenant != "" {
		s.opt.Tenants.started(j.spec.Tenant)
	}
	s.eventLocked(j, svclog.EvStarted, -1, 0, "stolen by "+thief)
	s.opt.Log.Info("job_stolen", "job", j.id, "thief", thief, "queue_depth", len(s.queue))
	return stealResponse{ID: j.id, Spec: j.spec}, true
}

// takeStolen claims a stolen job for finalization; false when the job was
// already requeued (thief too slow) or is unknown.
func (s *Server) takeStolen(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.stolen[id]
	if !ok {
		return nil, false
	}
	delete(s.stolen, id)
	return rec.job, true
}

// completeStolen finalizes a job whose configs a thief resolved: the results
// install into the cache, each config settles as "stolen:<how>", and the job
// finishes like a worker's run. Global simulation counters do NOT move here
// — they moved on the node that actually simulated, which is what makes the
// cluster-wide sum of simulated_runs the exactly-once proof.
func (s *Server) completeStolen(j *Job, rep stolenReport) {
	n := len(j.spec.Configs)
	results := make([]*machine.Result, n)
	resJSON := make([][]byte, n)
	var jobErr error
	switch {
	case rep.Error != "":
		jobErr = fmt.Errorf("serve: stolen by %s: %s", j.stolenBy, rep.Error)
	case len(rep.Results) != n || len(rep.Hows) != n:
		jobErr = fmt.Errorf("serve: thief %s returned %d results / %d hows for %d configs",
			j.stolenBy, len(rep.Results), len(rep.Hows), n)
	default:
		for i := range rep.Results {
			var res machine.Result
			if err := json.Unmarshal(rep.Results[i], &res); err != nil {
				jobErr = fmt.Errorf("serve: stolen result %d: %w", i, err)
				break
			}
			results[i] = &res
			resJSON[i] = append([]byte(nil), rep.Results[i]...)
		}
	}
	if jobErr == nil {
		for i, cs := range j.spec.Configs {
			s.cache.Fulfill(cs.Key(j.spec.Seed), j.spec.Seed, cs.canonical(), results[i], resJSON[i])
			s.settle(j, i, rep.Hows[i], "stolen:"+rep.Hows[i], results[i], resJSON[i])
		}
	}
	s.finish(j, jobErr)
}

// requeueStolen returns jobs whose thieves blew the deadline to the local
// queue. A late thief report for a requeued job gets 410 Gone.
func (s *Server) requeueStolen(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, rec := range s.stolen {
		if now.Before(rec.deadline) {
			continue
		}
		delete(s.stolen, id)
		j := rec.job
		j.state = JobQueued
		j.stolenBy = ""
		j.started = time.Time{}
		s.queue.push(j)
		s.cl.StealsRequeued++
		if s.opt.Tenants != nil && j.spec.Tenant != "" {
			s.opt.Tenants.requeued(j.spec.Tenant)
		}
		s.eventLocked(j, svclog.EvQueued, -1, 0, "steal by "+rec.thief+" timed out; requeued")
		s.opt.Log.Warn("job_steal_requeued", "job", j.id, "thief", rec.thief)
		s.cond.Signal()
	}
}

// trySteal runs the thief side: when this node is fully idle, ask one random
// alive peer for work, resolve it through resolve like a front door (no job
// of its own here: the victim settles the configs), and post the results
// back.
func (s *Server) trySteal() {
	node := s.clusterNode()
	if node == nil {
		return
	}
	s.mu.Lock()
	idle := len(s.queue) == 0 && s.running == 0 && !s.draining
	s.mu.Unlock()
	if !idle {
		return
	}
	peers := node.AlivePeers()
	if len(peers) == 0 {
		return
	}
	victim := peers[rand.Intn(len(peers))]
	body, _ := json.Marshal(struct {
		Thief string `json:"thief"`
	}{Thief: node.Self()})
	code, data, err := s.peerDo("POST", victim, "/api/v1/cluster/steal", body)
	if err != nil || code != http.StatusOK {
		return // nothing to steal, or victim unreachable
	}
	var sj stealResponse
	if err := json.Unmarshal(data, &sj); err != nil {
		return
	}
	s.countCluster(func(c *ClusterStats) { c.StealsTaken++ })
	s.opt.Log.Info("job_steal_taken", "victim", victim, "job", sj.ID,
		"configs", len(sj.Spec.Configs))
	rep := stolenReport{
		ID:      sj.ID,
		Hows:    make([]string, len(sj.Spec.Configs)),
		Results: make([]json.RawMessage, len(sj.Spec.Configs)),
	}
	if err := s.resolve(nil, sj.Spec.Seed, sj.Spec.Configs, true, func(i int, _ *machine.Result, js []byte, how string) {
		rep.Hows[i], rep.Results[i] = how, json.RawMessage(js)
	}); err != nil {
		rep.Error = err.Error()
		rep.Hows, rep.Results = nil, nil
	}
	rbody, err := json.Marshal(rep)
	if err != nil {
		s.countCluster(func(c *ClusterStats) { c.StealsFailed++ })
		return
	}
	code, _, err = s.peerDo("POST", victim, "/api/v1/cluster/stolen", rbody)
	if err != nil || code/100 != 2 || rep.Error != "" {
		s.countCluster(func(c *ClusterStats) { c.StealsFailed++ })
		return
	}
	s.countCluster(func(c *ClusterStats) { c.StealsCompleted++ })
}

// ---------------------------------------------------------------------------
// HTTP handlers (mounted in API.Handler, outside tenant auth)

// clusterGuard resolves the attached node and (for peer-to-peer payload
// endpoints) enforces the cluster-name header. Unclustered daemons answer 404
// on every cluster route.
func (a *API) clusterGuard(w http.ResponseWriter, r *http.Request, checkName bool) (*cluster.Node, bool) {
	node := a.srv.clusterNode()
	if node == nil {
		a.writeError(w, r, http.StatusNotFound,
			"this daemon is not clustered (run with -cluster-name and -peers)")
		return nil, false
	}
	if checkName {
		if got := r.Header.Get(clusterHeader); got != node.Name() {
			a.writeError(w, r, http.StatusForbidden,
				fmt.Sprintf("cluster name mismatch: got %q, this is %q", got, node.Name()))
			return nil, false
		}
	}
	return node, true
}

// clusterHeartbeat receives a peer's gossip view (name checked in the body by
// the node itself).
func (a *API) clusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	node, ok := a.clusterGuard(w, r, false)
	if !ok {
		return
	}
	node.HandleHeartbeat(w, r)
}

// clusterCompute resolves one config as this node — the owner side of
// forwarding, a route=false resolve that never forwards again. The response
// body is the canonical result JSON verbatim.
func (a *API) clusterCompute(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var req clusterComputeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad compute request: "+err.Error())
		return
	}
	key := req.Spec.Key(req.Seed)
	if want := fmt.Sprintf("%016x", key); req.Key != want {
		a.writeError(w, r, http.StatusBadRequest, fmt.Sprintf(
			"key derivation mismatch: peer sent %s, this node derives %s (mixed KeyVersion deployment?)",
			req.Key, want))
		return
	}
	var js []byte
	var how string
	err := a.srv.resolve(nil, req.Seed, []ConfigSpec{req.Spec}, false, func(_ int, _ *machine.Result, b []byte, h string) {
		js, how = b, h
	})
	if err != nil {
		a.writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	a.srv.countCluster(func(c *ClusterStats) { c.ForwardsServed++ })
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Aggsimd-How", how)
	w.Write(js)
}

// clusterLookup serves a cached result to a recovering owner (200 with the
// canonical bytes, 404 when not resident). Never computes.
func (a *API) clusterLookup(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var key uint64
	if _, err := fmt.Sscanf(r.URL.Query().Get("key"), "%x", &key); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad key: "+err.Error())
		return
	}
	_, js, ok := a.srv.Cache().Peek(key)
	if !ok {
		a.srv.countCluster(func(c *ClusterStats) { c.LookupsMissed++ })
		a.writeError(w, r, http.StatusNotFound, "key not resident")
		return
	}
	a.srv.countCluster(func(c *ClusterStats) { c.LookupsServed++ })
	w.Header().Set("Content-Type", "application/json")
	w.Write(js)
}

// clusterReplicate receives a pushed copy. The entry is verified exactly like
// a persisted cache index load: the key is re-derived from the spec, never
// trusted.
func (a *API) clusterReplicate(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var ie indexEntry
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&ie); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad replica: "+err.Error())
		return
	}
	want := ie.Spec.Key(ie.Seed)
	if fmt.Sprintf("%016x", want) != ie.Key {
		a.writeError(w, r, http.StatusBadRequest,
			"replica key does not match its spec (mixed KeyVersion deployment?)")
		return
	}
	var res machine.Result
	if err := json.Unmarshal(ie.Result, &res); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad replica result: "+err.Error())
		return
	}
	a.srv.Cache().Fulfill(want, ie.Seed, ie.Spec, &res, append([]byte(nil), ie.Result...))
	a.srv.countCluster(func(c *ClusterStats) { c.ReplicasReceived++ })
	w.WriteHeader(http.StatusNoContent)
}

// clusterSteal hands one queued job to a thief (200 with the job, 204 when
// nothing is stealable).
func (a *API) clusterSteal(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var req struct {
		Thief string `json:"thief"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad steal request: "+err.Error())
		return
	}
	sj, ok := a.srv.stealJob(req.Thief)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	a.writeJSON(w, r, http.StatusOK, sj)
}

// clusterStolen finalizes a stolen job with the thief's results; 410 when the
// job was already requeued (the thief's work is discarded — the shared cache
// still keeps whatever it computed).
func (a *API) clusterStolen(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var rep stolenReport
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&rep); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad stolen report: "+err.Error())
		return
	}
	j, ok := a.srv.takeStolen(rep.ID)
	if !ok {
		a.writeError(w, r, http.StatusGone, "job "+rep.ID+" is not out on loan (requeued or unknown)")
		return
	}
	a.srv.completeStolen(j, rep)
	w.WriteHeader(http.StatusNoContent)
}
