package serve

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
)

// A job stolen by a peer whose thief went silent is requeued and then run by
// a local worker; its chain carries the steal's started and the requeue's
// queued, and must still validate.
func TestEventChainStolenThenRequeued(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	events := svclog.NewEventLog(0)
	s, err := New(Options{Workers: 1, Run: fr.run, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	s.mu.Lock()
	s.stolen = make(map[string]*stolenRecord)
	s.mu.Unlock()

	a, _ := s.Submit(spec1("fft")) // holds the only worker in the gated runner
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Running != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b, _ := s.Submit(spec1("ocean"))
	if _, ok := s.stealJob("thief:1"); !ok {
		t.Fatal("queued job was not stealable")
	}
	s.requeueStolen(time.Now().Add(stealRequeueAfter + time.Second))
	close(fr.gate)
	for _, id := range []string{a.ID, b.ID} {
		if st := waitJob(t, s, id); st.State != JobDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
	}

	chain := events.Job(b.ID)
	var kinds []string
	for _, ev := range chain {
		kinds = append(kinds, string(ev.Kind))
	}
	want := "submitted queued started queued started simulated persisted done"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("chain kinds:\n got %s\nwant %s", got, want)
	}
	if chain[2].Detail != "stolen by thief:1" {
		t.Fatalf("steal event detail %q", chain[2].Detail)
	}
	if err := ValidateEventChain(chain, 1); err != nil {
		t.Fatalf("stolen-then-requeued chain rejected: %v", err)
	}
}

// A queued event is a requeue only directly after started: once a config
// has resolved, or before the job ever started, it is still a broken chain.
func TestEventChainRejectsLateRequeue(t *testing.T) {
	chain := func(kinds ...svclog.JobEventKind) []svclog.JobEvent {
		out := make([]svclog.JobEvent, len(kinds))
		for i, k := range kinds {
			out[i] = svclog.JobEvent{Seq: uint64(i + 1), Kind: k, Config: -1}
			switch k {
			case svclog.EvCacheHit, svclog.EvSimulated, svclog.EvPersisted:
				out[i].Config = 0
			}
		}
		return out
	}
	for name, c := range map[string][]svclog.JobEvent{
		"hit before requeue": chain(svclog.EvSubmitted, svclog.EvQueued, svclog.EvStarted,
			svclog.EvCacheHit, svclog.EvQueued, svclog.EvStarted, svclog.EvCacheHit, svclog.EvDone),
		"simulated before requeue": chain(svclog.EvSubmitted, svclog.EvQueued, svclog.EvStarted,
			svclog.EvSimulated, svclog.EvPersisted, svclog.EvQueued, svclog.EvStarted,
			svclog.EvSimulated, svclog.EvPersisted, svclog.EvDone),
		"queued twice before start": chain(svclog.EvSubmitted, svclog.EvQueued, svclog.EvQueued,
			svclog.EvStarted, svclog.EvCacheHit, svclog.EvDone),
		"requeued but never restarted": chain(svclog.EvSubmitted, svclog.EvQueued, svclog.EvStarted,
			svclog.EvQueued, svclog.EvCacheHit, svclog.EvDone),
		"requeued last": chain(svclog.EvSubmitted, svclog.EvQueued, svclog.EvStarted,
			svclog.EvQueued, svclog.EvDone),
	} {
		if err := ValidateEventChain(c, 1); err == nil {
			t.Errorf("%s: chain accepted", name)
		}
	}
}

// Tenant misses and joins move exactly when the cache's global counters do:
// at acquire time, whether or not the simulation behind the flight
// succeeds. A failing owner and its joiner still count one miss and one
// join; a retry simulates (a second miss) and a repeat hits.
func TestTenantAccountingMatchesCache(t *testing.T) {
	reg, err := NewTenants([]Tenant{{Name: "a", Key: "key-aaaaaaaa"}})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var calls atomic.Int64
	run := func(cfgs []machine.Config, onResult func(int, *machine.Result)) ([]*machine.Result, error) {
		if calls.Add(1) == 1 {
			<-gate
			return nil, errors.New("injected run failure")
		}
		return (&fakeRunner{}).run(cfgs, onResult)
	}
	s, err := New(Options{Workers: 2, Run: run, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	spec := spec1("fft")
	spec.Tenant = "a"
	owner, _ := s.Submit(spec)
	joiner, _ := s.Submit(spec)
	deadline := time.Now().Add(5 * time.Second)
	for cs := s.Cache().Stats(); cs.Misses+cs.Joins < 2; cs = s.Cache().Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("jobs never acquired: %+v", cs)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for _, id := range []string{owner.ID, joiner.ID} {
		if st := waitJob(t, s, id); st.State != JobFailed {
			t.Fatalf("job %s finished %s, want failed", id, st.State)
		}
	}
	for i := 0; i < 2; i++ {
		st, _ := s.Submit(spec)
		if got := waitJob(t, s, st.ID); got.State != JobDone {
			t.Fatalf("job %s finished %s (%s)", st.ID, got.State, got.Error)
		}
	}

	st := s.Stats()
	u := st.Tenants[0].Usage
	if st.Cache.Misses != 2 || st.Cache.Joins != 1 || st.Cache.Hits != 1 {
		t.Fatalf("cache counters %+v, want 2 misses, 1 join, 1 hit", st.Cache)
	}
	if u.CacheMisses != st.Cache.Misses || u.Joins != st.Cache.Joins || u.CacheHits != st.Cache.Hits {
		t.Fatalf("tenant usage %+v does not match cache counters %+v", u, st.Cache)
	}
	if u.SimulatedRuns != st.SimulatedRuns || u.EngineCycles != st.SimulatedCycles {
		t.Fatalf("tenant engine usage %d/%d, global %d/%d",
			u.SimulatedRuns, u.EngineCycles, st.SimulatedRuns, st.SimulatedCycles)
	}
}
