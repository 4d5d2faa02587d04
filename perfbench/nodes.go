package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"pimdsm"
)

// node is one in-process aggsimd: server, HTTP front door and, in a
// cluster, its membership node.
type node struct {
	addr      string
	srv       *pimdsm.Server
	peer      *pimdsm.ClusterNode
	closeHTTP func()
}

// runBatch is the signature of ServerOptions.Run, the batch runner a test
// may replace to inject faults.
type runBatch = func(cfgs []pimdsm.Config, onResult func(int, *pimdsm.Result)) ([]*pimdsm.Result, error)

// nodeOpts are the server options that differ from cmd/aggsimd's defaults;
// zero values keep the defaults.
type nodeOpts struct {
	workers    int
	queueLimit int
	run        runBatch
}

// startNodes starts n nodes on loopback, each configured like a default
// cmd/aggsimd (event log on, structured logging at info, Sweep runner,
// default queue and cache) with its log lines discarded. With n > 1 the
// nodes form a cluster with default membership timing and replication;
// every listener is bound first so each node knows the full seed list,
// and startNodes returns once every node sees every member alive.
func startNodes(n int, o nodeOpts) ([]*node, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// The daemon splits GOMAXPROCS across its job workers; in-process
	// nodes share one GOMAXPROCS, so split it across all of them.
	sweep := runtime.GOMAXPROCS(0) / (o.workers * n)
	if sweep < 1 {
		sweep = 1
	}
	log := pimdsm.NewServiceLogger(io.Discard, "info", false)
	var nodes []*node
	for i := 0; i < n; i++ {
		srv, err := pimdsm.NewServer(pimdsm.ServerOptions{
			Workers:    o.workers,
			QueueLimit: o.queueLimit,
			Run:        o.run,
			Log:        log,
			Events:     pimdsm.NewEventLog(0),
		}, sweep)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stopNodes(nodes)
			return nil, err
		}
		nd := &node{addr: addrs[i], srv: srv}
		nd.closeHTTP = pimdsm.NewServiceAPI(srv, pimdsm.NewDashboard()).Serve(lns[i])
		nodes = append(nodes, nd)
		if n > 1 {
			nd.peer, err = pimdsm.NewClusterNode(pimdsm.ClusterConfig{
				Name: "perfbench", Self: addrs[i], Seeds: addrs, Log: log,
			})
			if err != nil {
				for _, l := range lns[i+1:] {
					l.Close()
				}
				stopNodes(nodes)
				return nil, err
			}
			srv.AttachCluster(nd.peer)
		}
	}
	if n > 1 {
		deadline := time.Now().Add(10 * time.Second)
		for !converged(nodes) {
			if time.Now().After(deadline) {
				stopNodes(nodes)
				return nil, fmt.Errorf("cluster did not converge to %d members", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nodes, nil
}

func converged(nodes []*node) bool {
	for _, nd := range nodes {
		if nd.peer.Stats().Alive != len(nodes) {
			return false
		}
	}
	return true
}

// stopNodes closes each front door, then drains its server.
func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		nd.closeHTTP()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, nd := range nodes {
		_ = nd.srv.Shutdown(ctx) // drain errors only mean jobs were cut off at exit
	}
}

// owner returns the index of the node owning key (node 0 outside a
// cluster).
func owner(nodes []*node, key uint64) int {
	if nodes[0].peer == nil {
		return 0
	}
	addr, _ := nodes[0].peer.Owner(key)
	for i, nd := range nodes {
		if nd.addr == addr {
			return i
		}
	}
	return 0
}

// warm simulates every spec once, each submitted at its owner with seed 0,
// at most window jobs at a time, and in a cluster waits until every node
// holds every result (replication is asynchronous). These are the hits of
// the timed part.
func warm(nodes []*node, specs []pimdsm.ConfigSpec, window int) error {
	for lo := 0; lo < len(specs); lo += window {
		hi := min(lo+window, len(specs))
		type pending struct {
			nd *node
			id string
		}
		var ps []pending
		for _, cs := range specs[lo:hi] {
			nd := nodes[owner(nodes, cs.Key(0))]
			st, err := nd.srv.Submit(pimdsm.JobSpec{Name: "warm", Configs: []pimdsm.ConfigSpec{cs}})
			if err != nil {
				return fmt.Errorf("warm %s: %w", specLabel(cs), err)
			}
			ps = append(ps, pending{nd, st.ID})
		}
		for _, p := range ps {
			j, ok := p.nd.srv.Job(p.id)
			if !ok {
				return fmt.Errorf("warm job %s vanished", p.id)
			}
			<-j.Done()
			if st := p.nd.srv.Status(j); st.State != pimdsm.JobDone {
				return fmt.Errorf("warm job %s: %s %s", p.id, st.State, st.Error)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes {
		for _, cs := range specs {
			for !nd.srv.Cache().Contains(cs.Key(0)) {
				if time.Now().After(deadline) {
					return fmt.Errorf("%s never replicated to %s", specLabel(cs), nd.addr)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return nil
}
