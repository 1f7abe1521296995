package pif

import "github.com/snapstab/snapstab/internal/core"

// Client is the request face of a protocol that runs on one child PIF
// (IDs-Learning, mutual exclusion, reset, snapshot, termination
// detection): the paper's Request variable (§4.1) and the child machine.
// Invoke moves Request from Done to Wait; the embedding machine's Step
// owns the start (Wait -> In) and the decision (In -> Done), and its
// AppendState and Corrupt cover Request.
type Client struct {
	inst string

	// Request drives computations (input/output variable).
	Request core.ReqState
	// PIF is the child broadcast machine (instance inst+"/pif").
	PIF *PIF
}

// NewClient returns the request face of instance inst at process self,
// with Request = Done and a fresh child PIF named inst+"/pif" carrying cb
// and opts.
func NewClient(inst string, self core.ProcID, n int, cb Callbacks, opts ...Option) Client {
	return Client{inst: inst, Request: core.Done, PIF: New(inst+"/pif", self, n, cb, opts...)}
}

// Instance returns the protocol instance ID.
func (c *Client) Instance() string { return c.inst }

// Invoke submits an external request. It reports false, without effect,
// while a computation is requested or in progress.
func (c *Client) Invoke(env core.Env) bool {
	if c.Request != core.Done {
		return false
	}
	c.Request = core.Wait
	env.Emit(core.Event{Kind: core.EvRequest, Peer: -1, Instance: c.inst})
	return true
}

// Done reports whether no computation is requested or in progress.
func (c *Client) Done() bool { return c.Request == core.Done }

// Deliver handles messages addressed to the client instance itself. The
// protocol communicates exclusively through its child PIF, so only
// initial-configuration garbage arrives here; it is consumed with no
// effect.
func (c *Client) Deliver(core.Env, core.ProcID, core.Message) {}
