package net

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Cluster runs N nodes inside one process — the same codec, node loops
// and fault writer a multi-process deployment uses, minus the fork. A
// NewCluster mesh links its nodes over localhost TCP (tests and `loadex
// cluster -inproc`); a NewLiveCluster mesh links them over in-memory
// connection pairs (the live runtime). The cross-runtime equivalence
// tests drive both through workload.Cluster.
type Cluster struct {
	nodes []*Node
}

// NewCluster starts n nodes on ephemeral localhost ports running mech.
func NewCluster(n int, mech core.Mech, cfg core.Config, opts Options) (*Cluster, error) {
	return newCluster(n, mech, cfg, opts, false)
}

// NewLiveCluster starts n nodes running mech over in-memory links, one
// per topology edge: the live runtime.
func NewLiveCluster(n int, mech core.Mech, cfg core.Config, opts Options) (*Cluster, error) {
	return newCluster(n, mech, cfg, opts, true)
}

func newCluster(n int, mech core.Mech, cfg core.Config, opts Options, mem bool) (*Cluster, error) {
	nodes, err := startMesh(n, mem, func(r int) (*Node, error) {
		return NewNode(r, n, mech, cfg, opts)
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{nodes: nodes}, nil
}

// startMesh builds and starts an in-process mesh of n nodes, newNode
// creating rank r's. A TCP mesh listens on ephemeral localhost ports
// and starts every node concurrently: rank r's Start blocks until every
// higher neighbor has dialed it, so sequential starts would deadlock.
// An in-memory mesh (mem) wires one link pair per topology edge first,
// then launches the nodes. On any error every node built so far is
// closed.
func startMesh(n int, mem bool, newNode func(rank int) (*Node, error)) ([]*Node, error) {
	nodes := make([]*Node, 0, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		nd, err := newNode(r)
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
		if mem {
			for s := 0; s < r; s++ {
				if nd.edge(s) {
					a, b := memLinkPair()
					nodes[s].peers[r], nd.peers[s] = newPeer(r, a), newPeer(s, b)
				}
			}
		} else if addrs[r], err = nd.Listen("127.0.0.1:0"); err != nil {
			stopNodes(nodes)
			return nil, err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if mem {
				errs[r] = nd.startLinked()
			} else {
				errs[r] = nd.Start(addrs)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

// stopNodes closes every node. Closes run concurrently: each node's
// graceful shutdown waits for its peers' half-closes.
func stopNodes(nodes []*Node) {
	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd.Close()
		}()
	}
	wg.Wait()
}

// N returns the number of nodes.
func (cl *Cluster) N() int { return len(cl.nodes) }

// Node returns rank r's node.
func (cl *Cluster) Node(r int) *Node { return cl.nodes[r] }

// Decide performs one dynamic decision on the master node: acquire a
// coherent view, select the `slaves` least-loaded peers, commit the
// reservation and ship the work over the mesh. It blocks until the decision
// completed (for the snapshot mechanism, until the snapshot finished).
func (cl *Cluster) Decide(master int, totalWork float64, slaves int, spin time.Duration) error {
	_, err := cl.DecideObserved(master, totalWork, slaves, spin)
	return err
}

// DecideObserved is Decide plus the record the equivalence tests check:
// the view consulted at ready time and the assignments taken.
func (cl *Cluster) DecideObserved(master int, totalWork float64, slaves int, spin time.Duration) (core.Decision, error) {
	if master < 0 || master >= len(cl.nodes) {
		return core.Decision{}, fmt.Errorf("net: bad master %d", master)
	}
	return cl.nodes[master].Decide(totalWork, slaves, spin)
}

// AcquireView runs one full view acquisition on rank r, committing no
// assignment, and returns the coherent view.
func (cl *Cluster) AcquireView(r int) ([]core.Load, error) {
	if r < 0 || r >= len(cl.nodes) {
		return nil, fmt.Errorf("net: bad rank %d", r)
	}
	return cl.nodes[r].AcquireView()
}

// LocalChange applies a spontaneous local load variation on rank r.
func (cl *Cluster) LocalChange(r int, delta core.Load) { cl.nodes[r].LocalChange(delta) }

// NoMoreMaster announces rank r will never take a decision again.
func (cl *Cluster) NoMoreMaster(r int) { cl.nodes[r].NoMoreMaster() }

// AssignedItems returns how many work items were ever assigned across
// the cluster.
func (cl *Cluster) AssignedItems() int64 {
	var total int64
	for _, nd := range cl.nodes {
		total += nd.Assigned()
	}
	return total
}

// ExecutedItems returns how many work items were executed across the
// cluster.
func (cl *Cluster) ExecutedItems() int64 {
	var total int64
	for _, nd := range cl.nodes {
		total += nd.Executed()
	}
	return total
}

// Drain waits until every assigned work item across the cluster has
// been executed and acknowledged, or the timeout expires.
func (cl *Cluster) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var out int64
		for _, nd := range cl.nodes {
			out += nd.Outstanding()
		}
		if out == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("net: %d work items still outstanding", out)
		}
		time.Sleep(time.Millisecond)
	}
}

// Executed returns how many work items node r completed.
func (cl *Cluster) Executed(r int) int64 { return cl.nodes[r].Executed() }

// View returns a copy of node r's current estimates.
func (cl *Cluster) View(r int) []core.Load { return cl.nodes[r].ViewSnapshot() }

// Stats returns node r's mechanism counters.
func (cl *Cluster) Stats(r int) core.Stats { return cl.nodes[r].MechStats() }

// Counters returns node r's measurement accumulator (real wire sizes).
func (cl *Cluster) Counters(r int) core.Counters { return cl.nodes[r].Counters() }

// Transport returns node r's wire-level counters.
func (cl *Cluster) Transport(r int) TransportStats { return cl.nodes[r].Transport() }

// Stop closes every node.
func (cl *Cluster) Stop() { stopNodes(cl.nodes) }
