package spec

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
)

// FwdKey identifies one forwarded item: its endpoints and the sender's
// sequence number. The forwarding protocol's events carry the route
// packed into Msg.F.Num (core.PackRoute) and the sequence in Msg.B.Num.
type FwdKey struct {
	Src, Dst core.ProcID
	Seq      int64
}

// String renders the key compactly.
func (k FwdKey) String() string {
	return fmt.Sprintf("p%d->p%d#%d", k.Src, k.Dst, k.Seq)
}

// ForwardChecker verifies the snap-stabilizing message-forwarding
// specification (after Cournier–Dubois–Villain): every item the
// application hands to the protocol after an arbitrary initial
// configuration is delivered to its destination, exactly once, and
// nowhere else. Arm it with the item's key right after submitting the
// send; it then judges the event stream online:
//
//   - a second EvFwdDeliver of an armed key is a Duplication violation;
//   - an EvFwdDeliver of an armed key at a process other than its
//     destination is a Correctness violation;
//   - an EvFwdDiscard of an armed, not-yet-delivered key is a Loss
//     violation — the protocol sanitized the genuine item away. (Items
//     fabricated by the initial configuration may be discarded freely;
//     they are never armed.)
//
// The no-loss half ("eventually delivered") is a bounded-budget
// obligation discharged by the harness, like every liveness clause in
// this package: a run that exhausts its budget before Delivered(key)
// holds is the failure.
//
// The checker is not goroutine-safe; wrap it in a mutex-holding observer
// on the concurrent substrates (the façade does).
type ForwardChecker struct {
	armed      map[FwdKey]int // armed key -> deliveries observed
	violations []Violation
}

var _ core.ProtocolObserver = (*ForwardChecker)(nil)

// IgnoresTraffic marks the checker as reading protocol events only.
func (*ForwardChecker) IgnoresTraffic() {}

// NewForwardChecker returns an empty checker.
func NewForwardChecker() *ForwardChecker {
	return &ForwardChecker{armed: make(map[FwdKey]int)}
}

// Arm begins checking the item with key k. Keys must be unique across the
// run (the façade draws sequence numbers from one counter).
func (c *ForwardChecker) Arm(k FwdKey) {
	if _, dup := c.armed[k]; dup {
		panic("spec: forwarding key armed twice: " + k.String())
	}
	c.armed[k] = 0
}

// Delivered reports whether the armed item k has reached its destination.
func (c *ForwardChecker) Delivered(k FwdKey) bool { return c.armed[k] > 0 }

// key extracts the item key from a forwarding event.
func eventFwdKey(e core.Event) FwdKey {
	src, dst := core.UnpackRoute(e.Msg.F.Num)
	return FwdKey{Src: src, Dst: dst, Seq: e.Msg.B.Num}
}

// OnEvent consumes one event.
func (c *ForwardChecker) OnEvent(e core.Event) {
	switch e.Kind {
	case core.EvFwdDeliver:
		k := eventFwdKey(e)
		n, ok := c.armed[k]
		if !ok {
			return // an item we did not send: outside the guarantee
		}
		c.armed[k] = n + 1
		if e.Proc != k.Dst {
			c.violations = append(c.violations, Violation{
				Property: "Correctness",
				Detail:   fmt.Sprintf("item %v delivered at process %d, not its destination", k, e.Proc),
				Step:     e.Step,
			})
		}
		if n > 0 {
			c.violations = append(c.violations, Violation{
				Property: "Duplication",
				Detail:   fmt.Sprintf("item %v delivered %d times", k, n+1),
				Step:     e.Step,
			})
		}
	case core.EvFwdDiscard:
		k := eventFwdKey(e)
		if n, ok := c.armed[k]; ok && n == 0 {
			c.violations = append(c.violations, Violation{
				Property: "Loss",
				Detail:   fmt.Sprintf("undelivered item %v discarded at process %d", k, e.Proc),
				Step:     e.Step,
			})
		}
	}
}

// Violations returns the violations observed so far.
func (c *ForwardChecker) Violations() []Violation { return c.violations }
