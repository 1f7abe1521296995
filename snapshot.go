package snapstab

import (
	"context"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/snapshot"
)

// SnapshotCluster is a system running the snap-stabilizing global state
// collection protocol: any process can gather, in one computation, the
// application state of every process — and the gathered values are
// certified to have been produced for this very collection, never stale
// channel garbage.
type SnapshotCluster struct {
	clusterCore
	machines []*snapshot.Snapshot
}

// NewSnapshotCluster builds an n-process collection deployment. provider
// reads process p's application state when probed; on the concurrent
// substrates it runs on process goroutines and must be goroutine-safe.
func NewSnapshotCluster(n int, provider func(p int) Payload, opts ...Option) *SnapshotCluster {
	o := buildOptions(opts)
	o.requireTopology("snap")
	c := &SnapshotCluster{}
	c.machines = make([]*snapshot.Snapshot, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		i := i
		c.machines[i] = snapshot.New("snap", core.ProcID(i), n, capacityBound(o))
		if provider != nil {
			c.machines[i].Provide = func() core.Payload { return provider(i).internal() }
		}
		stacks[i] = c.machines[i].Machines()
	}
	c.init(o, stacks)
	return c
}

// CollectRequest is the handle of an asynchronous Collect.
type CollectRequest struct {
	*Request
	views []Payload
}

// Views returns every process's state as reported for this probe
// (indexed by process), valid after the request completed successfully
// and nil while it is still in flight.
func (r *CollectRequest) Views() []Payload {
	if !r.completed() {
		return nil
	}
	return r.views
}

// CollectAsync submits a collection request at process p and returns
// immediately.
func (c *SnapshotCluster) CollectAsync(p int) *CollectRequest {
	req := &CollectRequest{Request: c.newRequest()}
	c.start(req.Request, p, "collect", func(env core.Env) bool {
		return c.machines[p].Invoke(env)
	}, func(core.Env) bool {
		machine := c.machines[p]
		if !machine.Done() {
			return false
		}
		req.views = make([]Payload, len(machine.Views))
		for q, v := range machine.Views {
			req.views[q] = Payload{Tag: v.Tag, Num: v.Num}
		}
		return true
	}, nil)
	return req
}

// Collect runs a collection at process p and returns every process's
// state as reported for this probe (indexed by process).
func (c *SnapshotCluster) Collect(p int) ([]Payload, error) {
	req := c.CollectAsync(p)
	if err := req.Wait(context.Background()); err != nil {
		return nil, err
	}
	return req.Views(), nil
}
