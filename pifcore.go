package snapstab

import (
	"fmt"
	"sync"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/spec"
)

// pifConfig is what distinguishes the two PIF façades over the shared
// machinery: how application values map onto the wire payload. The
// legacy cluster works in structured (Tag, Num) payloads with the
// ack-derivation default receiver; the typed cluster works in opaque
// codec-marshaled bodies with the echo default receiver.
type pifConfig struct {
	// recv handles an accepted broadcast at process proc and returns the
	// feedback payload. Always non-nil.
	recv func(proc, from int, b core.Payload) core.Payload
	// expect, when non-nil, predicts the feedback process q must produce
	// for broadcast b; it arms the Specification 1 checker's value-exact
	// Decision clause. Nil when a custom receiver makes the expected
	// values unknowable (SpecReport then says so via ValueChecked).
	expect func(q core.ProcID, b core.Payload) core.Payload
	// garbageBlob is the maximum opaque-body length CorruptEverything
	// draws into garbage payloads, variables and channels alike (0 for the
	// legacy cluster, keeping its corruption streams byte-identical to
	// earlier revisions).
	garbageBlob int
}

// pifCore is the payload-level PIF cluster machinery shared by
// PIFCluster and TypedPIFCluster: machines, substrate, request plumbing,
// feedback collection, spec checking, corruption. The façades above it
// only translate application values to core.Payload and back.
type pifCore struct {
	clusterCore
	cfg      pifConfig
	machines []*pif.PIF
	checker  *spec.PIFChecker
	chkMu    sync.Mutex // serializes checker access across process goroutines
	// active[p] is the feedback sink of process p's in-flight broadcast
	// request. Written inside completion conditions and read inside
	// OnFeedback — both in process p's substrate-atomic context, so no
	// extra locking is needed and callbacks are never swapped per call.
	active []*feedbackSink
}

// feedbackSink collects one computation's acknowledgments.
type feedbackSink struct {
	fb map[core.ProcID]core.Payload
}

// rawFeedback is one process's acknowledgment at the payload level.
type rawFeedback struct {
	From  int
	Value core.Payload
}

// payloadBroadcastRequest is the payload-level broadcast handle the
// typed wrappers decode from.
type payloadBroadcastRequest struct {
	*Request
	fb []rawFeedback
}

// newPIFCore assembles the machines and substrate.
func newPIFCore(n int, cfg pifConfig, o options) *pifCore {
	c := &pifCore{cfg: cfg}
	c.machines = make([]*pif.PIF, n)
	c.active = make([]*feedbackSink, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		i := i
		id := core.ProcID(i)
		popts := []pif.Option{capacityBound(o), pif.WithGarbageBlobs(cfg.garbageBlob)}
		if o.topology != nil {
			// Over a sparse graph each PIF instance handshakes with its
			// neighbours only; on the complete graph the peer set equals
			// the default and executions stay byte-identical.
			popts = append(popts, pif.WithPeers(o.topology.Neighbors(id)))
		}
		c.machines[i] = pif.New("pif", id, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, from core.ProcID, b core.Payload) core.Payload {
				return cfg.recv(int(id), int(from), b)
			},
			OnFeedback: func(_ core.Env, from core.ProcID, f core.Payload) {
				if sink := c.active[i]; sink != nil {
					sink.fb[from] = f
				}
			},
		}, popts...)
		stacks[i] = core.Stack{c.machines[i]}
	}
	// The checker stays dormant until armSpec; it is wired here so every
	// substrate judges Specification 1 online. When the expected feedback
	// values are known exactly (default receivers), the Decision clause
	// is checked value-for-value.
	c.checker = &spec.PIFChecker{N: n, Initiator: 0, Instance: "pif"}
	if o.topology != nil {
		c.checker.Participants = o.topology.Neighbors(0)
	}
	c.checker.ExpectFck = cfg.expect
	c.init(o, stacks, lockedChecker{&c.chkMu, c.checker})
	return c
}

// armSpec arms the Specification 1 checker for the next broadcast of
// token initiated at process p.
func (c *pifCore) armSpec(p int, token core.Payload) error {
	if p < 0 || p >= len(c.machines) {
		return fmt.Errorf("%w: ArmSpec at process %d (cluster has %d)", ErrInvalidProcess, p, len(c.machines))
	}
	c.chkMu.Lock()
	defer c.chkMu.Unlock()
	c.checker.Initiator = core.ProcID(p)
	if topo := c.opt.topology; topo != nil {
		// The obligations follow the initiator: its neighbourhood is the
		// computation's participant set.
		c.checker.Participants = topo.Neighbors(core.ProcID(p))
	}
	c.checker.Arm(token)
	return nil
}

// specReport snapshots the armed computation's verdict.
func (c *pifCore) specReport() SpecReport {
	c.chkMu.Lock()
	defer c.chkMu.Unlock()
	r := SpecReport{
		Started:      c.checker.Started(),
		Decided:      c.checker.Decided(),
		ValueChecked: c.checker.ValueChecking(),
	}
	for _, v := range c.checker.Violations() {
		r.Violations = append(r.Violations, v.String())
	}
	return r
}

// broadcastAsync submits a PIF computation request for token at process
// p. The request is accepted as soon as the machine's previous
// computation (if any — possibly fabricated by corruption) has decided;
// requests at the same process are served one at a time, in the order
// they were issued. The guarantee (Theorem 2) holds
// no matter how corrupted the cluster was at submission.
func (c *pifCore) broadcastAsync(p int, token core.Payload) *payloadBroadcastRequest {
	req := &payloadBroadcastRequest{Request: c.newRequest()}
	sink := &feedbackSink{fb: make(map[core.ProcID]core.Payload)}
	c.start(req.Request, p, "broadcast", func(env core.Env) bool {
		if !c.machines[p].Invoke(env, token) {
			return false
		}
		c.active[p] = sink
		return true
	}, func(env core.Env) bool {
		if machine := c.machines[p]; !machine.Done() || !machine.BMes.Equal(token) {
			return false
		}
		c.active[p] = nil
		req.fb = make([]rawFeedback, 0, len(sink.fb))
		for q := 0; q < env.N(); q++ {
			if f, ok := sink.fb[core.ProcID(q)]; ok {
				req.fb = append(req.fb, rawFeedback{From: q, Value: f})
			}
		}
		return true
	}, func(core.Env) { c.active[p] = nil })
	return req
}
