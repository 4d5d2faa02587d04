package main

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"pimdsm"
)

// request is one job the load generator submits at its due time.
type request struct {
	name  string // unique job name; lifecycle events carry it
	door  int    // node the submission enters at
	class string // hit, miss, dup, fig6-hit, fig6-miss or burst
	spec  pimdsm.JobSpec
	due   time.Duration // offset from the schedule start

	// Guarded by loadgen.mu.
	client   *pimdsm.ServiceClient // follows any ownership redirect
	jobID    string
	doneSeen bool
	finished bool

	// Written by the one goroutine that handles each step.
	lag       time.Duration // submit start - due
	submitDur time.Duration // span on Client.Submit
	resultDur time.Duration // span on Client.Result
	latency   time.Duration // due -> result bytes received
	end       time.Time
	status    pimdsm.JobStatus
	err       error
}

// hit reports whether every config of the job was served from the door's
// cache.
func (r *request) hit() bool { return r.err == nil && r.status.CacheHits == r.status.Total }

// task is one unit of sender work: submit a request, or fetch its result.
type task struct {
	r     *request
	fetch bool
}

// loadgen drives one open-loop schedule: a timer goroutine queues each
// submission at its due time, two sender goroutines (one HTTP connection
// each per node) submit and fetch, and one subscriber per node watches the
// lifecycle event log so a result is fetched as soon as its job finishes,
// with no polling period to quantize latency.
type loadgen struct {
	nodes []*node
	ref   *reference
	httpc *http.Client
	reqs  []*request

	t0      time.Time
	byName  map[string]*request
	tasks   chan task
	allDone chan struct{}

	mu          sync.Mutex
	closing     bool
	nFinished   int
	outstanding int
	maxOut      int
}

// senders is the number of goroutines issuing HTTP requests.
const senders = 2

func newLoadgen(nodes []*node, ref *reference, reqs []*request) *loadgen {
	lg := &loadgen{
		nodes: nodes,
		ref:   ref,
		reqs:  reqs,
		httpc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     senders,
				MaxIdleConnsPerHost: senders,
				DisableCompression:  true,
			},
		},
		byName:  make(map[string]*request, len(reqs)),
		allDone: make(chan struct{}),
		// Every request sends at most one submit and one fetch task.
		tasks: make(chan task, 2*len(reqs)),
	}
	for _, r := range reqs {
		lg.byName[r.name] = r
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return lg
}

// run executes the schedule and waits for every request to finish, or
// until grace has passed after the last due time; unfinished requests fail.
func (lg *loadgen) run(grace time.Duration) {
	if len(lg.reqs) == 0 {
		return
	}
	var subs sync.WaitGroup
	var cancels []func()
	for _, nd := range lg.nodes {
		// Sized to hold every event of a run, so the subscriber never drops
		// a completion.
		ch, cancel := nd.srv.Events().Subscribe(1 << 16)
		cancels = append(cancels, cancel)
		subs.Add(1)
		go func() {
			defer subs.Done()
			lg.watch(ch)
		}()
	}
	var workers sync.WaitGroup
	workers.Add(senders)
	for i := 0; i < senders; i++ {
		go func() {
			defer workers.Done()
			for t := range lg.tasks {
				if t.fetch {
					lg.fetch(t.r)
				} else {
					lg.submit(t.r)
				}
			}
		}()
	}

	lg.t0 = time.Now()
	for _, r := range lg.reqs {
		if d := time.Until(lg.t0.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		lg.mu.Lock()
		lg.tasks <- task{r: r}
		lg.mu.Unlock()
	}
	last := lg.reqs[len(lg.reqs)-1].due
	select {
	case <-lg.allDone:
	case <-time.After(time.Until(lg.t0.Add(last + grace))):
	}

	lg.mu.Lock()
	lg.closing = true
	close(lg.tasks)
	lg.mu.Unlock()
	workers.Wait()
	for _, c := range cancels {
		c()
	}
	subs.Wait()
	lg.mu.Lock()
	for _, r := range lg.reqs {
		if !r.finished {
			r.err = errors.New("not complete by the end of the run")
			r.finished = true
		}
	}
	lg.mu.Unlock()
}

// watch maps each node's job ids to request names (the submitted event
// carries the job name) and queues the result fetch when a job ends.
func (lg *loadgen) watch(ch <-chan pimdsm.JobEvent) {
	names := map[string]string{}
	for ev := range ch {
		switch ev.Kind {
		case "submitted":
			names[ev.Job] = ev.Detail
		case "done", "failed", "aborted":
			r := lg.byName[names[ev.Job]]
			delete(names, ev.Job)
			if r == nil {
				continue
			}
			lg.mu.Lock()
			r.doneSeen = true
			if r.client != nil {
				lg.enqueueLocked(task{r: r, fetch: true})
			}
			lg.mu.Unlock()
		}
	}
}

func (lg *loadgen) enqueueLocked(t task) {
	if !lg.closing && !t.r.finished {
		lg.tasks <- t
	}
}

func (lg *loadgen) submit(r *request) {
	start := time.Now()
	r.lag = start.Sub(lg.t0.Add(r.due))
	c := &pimdsm.ServiceClient{Base: lg.nodes[r.door].addr, HTTP: lg.httpc}
	st, err := c.Submit(r.spec)
	r.submitDur = time.Since(start)
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if err != nil {
		var busy *pimdsm.BusyError
		if errors.As(err, &busy) {
			err = fmt.Errorf("HTTP 429: %w", err)
		}
		r.err = fmt.Errorf("submit: %w", err)
		lg.finishLocked(r, time.Now())
		return
	}
	r.client, r.jobID = c, st.ID
	lg.outstanding++
	lg.maxOut = max(lg.maxOut, lg.outstanding)
	if r.doneSeen {
		lg.enqueueLocked(task{r: r, fetch: true})
	}
}

func (lg *loadgen) fetch(r *request) {
	start := time.Now()
	st, raw, err := r.client.Result(r.jobID)
	end := time.Now()
	r.resultDur = end.Sub(start)
	r.status = st
	switch {
	case err != nil:
		r.err = fmt.Errorf("result: %w", err)
	case st.State != pimdsm.JobDone:
		r.err = fmt.Errorf("job %s is %s", st.ID, st.State)
	case len(raw) != len(r.spec.Configs):
		r.err = fmt.Errorf("job %s: %d results for %d configs", st.ID, len(raw), len(r.spec.Configs))
	default:
		for i, b := range raw {
			if err := lg.ref.checkBytes(r.spec.Configs[i], b); err != nil {
				r.err = err
				break
			}
		}
	}
	lg.mu.Lock()
	lg.outstanding--
	lg.finishLocked(r, end)
	lg.mu.Unlock()
}

func (lg *loadgen) finishLocked(r *request, end time.Time) {
	if r.finished {
		return
	}
	r.finished = true
	r.end = end
	r.latency = end.Sub(lg.t0.Add(r.due))
	lg.nFinished++
	if lg.nFinished == len(lg.reqs) {
		close(lg.allDone)
	}
}
