// Mux-mode driving: many independent clusters over one connection mesh.
// A Mux binds one bare node per process — no default group — and Attach
// installs each cluster as a fresh wire group on every node, so many
// logical snap-stabilizing groups share n listeners, one set of
// persistent connections, and the vectored write path instead of each
// paying for its own mesh. Groups are isolated end to end: routing,
// observers, topology, fault plane, and counters are per group, and a
// frame for a group a node does not host is dropped before it can cross
// into another group's mailboxes.
package tcp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// Mux hosts many core.Substrate instances over one set of TCP
// connections.
type Mux struct {
	nodes []*Node

	mu      sync.Mutex
	nextGid uint64
	closed  bool

	closeOnce sync.Once
}

// NewMux binds one loopback listener per process and starts the shared
// loops with no groups attached. Options must be node-level (capacity,
// batch, tick, step interval, backoff, write timeout); per-cluster
// options (topology, faults, observers) belong to Attach. The caller
// owns the mux and must Close it to release the listeners.
func NewMux(nProcs int, opts ...Option) (*Mux, error) {
	if nProcs < 2 {
		return nil, fmt.Errorf("tcp: need at least 2 processes, got %d", nProcs)
	}
	m := &Mux{nodes: make([]*Node, nProcs), nextGid: 1}
	addrs := make([]string, nProcs)
	for i := 0; i < nProcs; i++ {
		node, err := NewNode(core.ProcID(i), nil, "127.0.0.1:0", make([]string, nProcs), opts...)
		if err != nil {
			for _, prev := range m.nodes[:i] {
				prev.Stop()
			}
			return nil, fmt.Errorf("tcp: bind mux node %d: %w", i, err)
		}
		m.nodes[i] = node
		addrs[i] = node.Addr()
	}
	// Full wiring: per-group topologies restrict traffic at the message
	// level, so the connection mesh needs every address.
	for i, node := range m.nodes {
		for j, a := range addrs {
			if i != j {
				node.SetPeer(core.ProcID(j), a)
			}
		}
	}
	for _, node := range m.nodes {
		node.Start()
	}
	return m, nil
}

// N returns the number of processes.
func (m *Mux) N() int { return len(m.nodes) }

// Addrs returns every node's bound local address.
func (m *Mux) Addrs() []string {
	out := make([]string, len(m.nodes))
	for i, node := range m.nodes {
		out[i] = node.Addr()
	}
	return out
}

// Attach installs one cluster — one stack per process — as a fresh
// group on every node and returns its substrate view. Options here are
// per-cluster (WithTopology, WithFaults, WithObserver); node-level
// options are rejected, they were fixed at NewMux. Attach may be called
// any time while the mux runs; a cluster's fault schedule starts at its
// own attach instant.
func (m *Mux) Attach(stacks []core.Stack, opts ...Option) (*MuxCluster, error) {
	if len(stacks) != len(m.nodes) {
		return nil, fmt.Errorf("tcp: %d stacks for a mux of %d processes", len(stacks), len(m.nodes))
	}
	topo, fault, obs, err := clusterOptions(opts)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("tcp: mux closed")
	}
	gid := m.nextGid
	m.nextGid++
	m.mu.Unlock()

	c := &MuxCluster{mux: m, gid: gid, groups: make([]*group, len(m.nodes)), done: make(chan struct{})}
	epoch := time.Now()
	for i, node := range m.nodes {
		g, err := buildGroup(gid, stacks[i], topo, fault, obs, len(m.nodes), node.self, node.capacity)
		if err != nil {
			for _, prev := range m.nodes[:i] {
				prev.removeGroup(gid)
			}
			return nil, err
		}
		g.epoch = epoch
		c.groups[i] = g
		node.addGroup(g)
	}
	return c, nil
}

// clusterOptions extracts the per-cluster settings from opts, rejecting
// anything node-level: the connection mesh those options configure is
// shared by every attached cluster.
func clusterOptions(opts []Option) (*core.Topology, *core.FaultPlan, core.MultiObserver, error) {
	var s Node
	for _, o := range opts {
		o(&s)
	}
	if s.capacity != 0 || s.vecCap != 0 || s.tick != 0 ||
		s.stepInterval != 0 || s.dialMin != 0 || s.dialMax != 0 || s.writeTimeout != 0 {
		return nil, nil, nil, fmt.Errorf("tcp: node-level option per attached cluster; set it on NewMux")
	}
	return s.topo0, s.fault0, s.obs0, nil
}

// Close stops every node, releasing loops, listeners, and connections —
// and with them every attached cluster. Idempotent.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.closeOnce.Do(func() { stopAll(m.nodes) })
	return nil
}

// MuxCluster is one cluster hosted on a Mux: a core.Substrate whose
// processes share their connections and loops with every other attached
// cluster, isolated from them by the frame's group id.
type MuxCluster struct {
	mux    *Mux
	gid    uint64
	groups []*group // per process

	closeOnce sync.Once
	done      chan struct{}
}

var (
	_ core.Substrate        = (*MuxCluster)(nil)
	_ core.TransportStatser = (*MuxCluster)(nil)
)

// N returns the number of processes.
func (c *MuxCluster) N() int { return len(c.groups) }

// Group returns the wire group id this cluster's traffic carries.
func (c *MuxCluster) Group() uint64 { return c.gid }

// Do runs f under process p's action mutex with this cluster's
// environment.
func (c *MuxCluster) Do(p core.ProcID, f func(env core.Env)) {
	c.mux.nodes[p].doGroup(c.groups[p], f)
}

// Await evaluates cond under process p's action mutex until it holds,
// polling at millisecond cadence (deliveries are event-driven; the poll
// bounds only external observation latency). It returns nil, ctx.Err(),
// or ErrStopped.
func (c *MuxCluster) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	node := c.mux.nodes[p]
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		ok := false
		c.Do(p, func(env core.Env) { ok = cond(env) })
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.done:
			return ErrStopped
		case <-node.stop:
			return ErrStopped
		case <-ticker.C:
		}
	}
}

// NodeStats returns every process's transport counters for this
// cluster. The message counters are this cluster's own; the frame,
// syscall, redial, and link counters are per socket, shared with the
// other attached clusters.
func (c *MuxCluster) NodeStats() []Stats {
	out := make([]Stats, len(c.groups))
	for i, g := range c.groups {
		out[i] = c.mux.nodes[i].groupStats(g)
	}
	return out
}

// TransportStats implements core.TransportStatser for this cluster.
func (c *MuxCluster) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(c.groups))
	for i, g := range c.groups {
		out[i] = c.mux.nodes[i].transportStats(g)
	}
	return out
}

// Close detaches the cluster from every node: its boxed mail is
// discarded, subsequent frames for its group id are dropped, and the
// mux keeps running for its siblings. Idempotent.
func (c *MuxCluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		for _, node := range c.mux.nodes {
			node.removeGroup(c.gid)
		}
	})
	return nil
}
