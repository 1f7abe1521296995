package snapstab

import (
	"context"
	"errors"
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/reset"
)

// ErrPartialAck is returned (wrapped) by a reset request whose decision
// was reached without every process acknowledging the epoch. It is a
// check the model never trips: channels lose, duplicate and reorder but
// never forge, so from any initial configuration a started reset decides
// on real acknowledgments (Theorem 2), on every substrate and under every
// fault plan. It stays so that a broken invariant surfaces as an error
// callers can tell from timeouts and budget errors with errors.Is, not as
// a half-acknowledged epoch.
var ErrPartialAck = errors.New("snapstab: reset decided without full acknowledgment")

// ResetCluster is a system running the snap-stabilizing global reset
// protocol — the first application the paper names for PIF. A reset
// requested anywhere drives every process through its reinitialization
// handler under a common epoch and completes only after every process
// acknowledged.
type ResetCluster struct {
	clusterCore
	machines []*reset.Reset
}

// NewResetCluster builds an n-process reset deployment. handler runs at
// process p whenever it adopts a reset epoch; it may be nil. On the
// concurrent substrates the handler runs on process goroutines and must
// be goroutine-safe.
func NewResetCluster(n int, handler func(p int, epoch int64), opts ...Option) *ResetCluster {
	o := buildOptions(opts)
	o.requireTopology("reset")
	c := &ResetCluster{}
	c.machines = make([]*reset.Reset, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		i := i
		c.machines[i] = reset.New("reset", core.ProcID(i), n, capacityBound(o))
		if handler != nil {
			c.machines[i].OnReset = func(epoch int64) { handler(i, epoch) }
		}
		stacks[i] = c.machines[i].Machines()
	}
	c.init(o, stacks)
	return c
}

// ResetRequest is the handle of an asynchronous Reset.
type ResetRequest struct {
	*Request
	epoch int64
}

// Epoch returns the epoch every process adopted and acknowledged, valid
// after the request completed successfully and zero while it is still
// in flight.
func (r *ResetRequest) Epoch() int64 {
	if !r.completed() {
		return 0
	}
	return r.epoch
}

// ResetAsync submits a global reset request at process p and returns
// immediately.
func (c *ResetCluster) ResetAsync(p int) *ResetRequest {
	req := &ResetRequest{Request: c.newRequest()}
	c.start(req.Request, p, "reset", func(env core.Env) bool {
		return c.machines[p].Invoke(env)
	}, func(core.Env) bool {
		machine := c.machines[p]
		if !machine.Done() {
			return false
		}
		// The condition keys only on absorbing states (Invoke accepted,
		// then Request back at Done), never on the transient In — a
		// substrate re-evaluates conditions at the end of atomic
		// sections and could pass over a transient state entirely. The
		// epoch OUR computation broadcast is the child PIF's broadcast
		// payload: written by our start action and by nothing else until
		// the next request (the per-process gate holds until we finish).
		// machine.Epoch would be wrong here: a concurrent reset launched
		// by a corrupted peer may have been adopted over it mid-flight.
		req.epoch = machine.PIF.BMes.Num
		if !machine.AllAcked(req.epoch) {
			// Unreachable for a correct protocol; surfaced rather than
			// silently returning a half-acknowledged epoch.
			req.fail = fmt.Errorf("%w of epoch %d", ErrPartialAck, req.epoch)
		}
		return true
	}, nil)
	return req
}

// Reset requests a global reset at process p and runs the cluster to the
// decision, returning the epoch every process adopted and acknowledged.
func (c *ResetCluster) Reset(p int) (epoch int64, err error) {
	req := c.ResetAsync(p)
	if err := req.Wait(context.Background()); err != nil {
		return 0, err
	}
	return req.Epoch(), nil
}
