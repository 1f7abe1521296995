// Package spec formalizes the paper's specifications as executable
// checkers over event streams, plus the §3 machinery (state projections
// and safety-distributed bad-factors) used by the impossibility
// construction.
//
// Snap-stabilization cannot be verified as a set of legitimate
// configurations; it is a predicate on executions (§2: "specifications
// based on a sequence of actions"). The checkers therefore subscribe to
// the substrate's event stream and judge the properties of Specification 1
// (PIF: Start, Correctness, Termination, Decision) and Specification 3
// (mutual exclusion: Start, Correctness) online. Termination and the
// finite-time halves of Start are bounded-budget obligations discharged by
// the harness (a violation manifests as a run exceeding its generous step
// budget); everything else is checked exactly.
package spec

import (
	"fmt"
	"sort"

	"github.com/snapstab/snapstab/internal/core"
)

// Violation describes one observed specification violation.
type Violation struct {
	// Property names the violated clause ("Correctness", "Decision", ...).
	Property string
	// Detail is a human-readable description.
	Detail string
	// Step is the scheduler step at which the violation was detected: 0
	// on Runtime, UDP and TCP, whose engine stamps no step on its events.
	Step int
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("step %d: %s violated: %s", v.Step, v.Property, v.Detail)
}

// PIFChecker verifies Specification 1 for the computations of one
// initiator on one protocol instance. Arm it with the requested broadcast
// payload right after submitting the request; it then watches the
// following computation through to its decision.
//
// ExpectFck, when non-nil, gives the feedback value process q is expected
// to produce for broadcast b; the Decision check then verifies the
// initiator decided on exactly those values ("taking all acknowledgments
// of the last message it broadcasts into account only").
type PIFChecker struct {
	N         int
	Initiator core.ProcID
	Instance  string
	ExpectFck func(q core.ProcID, b core.Payload) core.Payload
	// Participants restricts the Correctness/Decision obligations to a set
	// of processes — the initiator's neighbours when the PIF runs over a
	// non-complete topology. Nil means every process except the initiator
	// (the paper's complete graph).
	Participants []core.ProcID

	armed      bool
	token      core.Payload
	started    bool
	decided    bool
	brd        map[core.ProcID]bool
	fck        map[core.ProcID][]core.Payload
	violations []Violation
}

var _ core.ProtocolObserver = (*PIFChecker)(nil)

// IgnoresTraffic marks the checker as reading protocol events only.
func (*PIFChecker) IgnoresTraffic() {}

// Arm begins checking the computation that will broadcast token. It must
// be called after the previous computation's decision (the model forbids
// re-requesting earlier).
func (c *PIFChecker) Arm(token core.Payload) {
	c.armed = true
	c.token = token
	c.started = false
	c.decided = false
	c.brd = make(map[core.ProcID]bool)
	c.fck = make(map[core.ProcID][]core.Payload)
}

// Started reports whether the armed computation has started.
func (c *PIFChecker) Started() bool { return c.started }

// Decided reports whether the armed computation has decided.
func (c *PIFChecker) Decided() bool { return c.decided }

// ValueChecking reports whether the Decision clause is being checked
// value-for-value: only when ExpectFck is installed does the checker
// compare the decided feedback against the expected values. Callers
// surfacing a verdict (the façade's SpecReport) must report this bit —
// a clean verdict that never compared values is weaker than it looks.
func (c *PIFChecker) ValueChecking() bool { return c.ExpectFck != nil }

// OnEvent consumes one event.
func (c *PIFChecker) OnEvent(e core.Event) {
	if !c.armed || c.decided || e.Instance != c.Instance {
		return
	}
	switch e.Kind {
	case core.EvStart:
		if e.Proc == c.Initiator && e.Note == c.token.String() {
			c.started = true
		}
	case core.EvRecvBrd:
		if c.started && e.Proc != c.Initiator && e.Msg.B.Equal(c.token) {
			c.brd[e.Proc] = true
		}
	case core.EvRecvFck:
		if c.started && e.Proc == c.Initiator {
			c.fck[e.Peer] = append(c.fck[e.Peer], e.Msg.F)
		}
	case core.EvDecide:
		if e.Proc == c.Initiator && c.started {
			c.decided = true
			c.checkAtDecision(e.Step)
		}
	}
}

// checkAtDecision applies the Correctness and Decision clauses once the
// started computation decides (Lemma 5: all receive-brd and receive-fck
// events of the computation precede the decision).
func (c *PIFChecker) checkAtDecision(step int) {
	participants := c.Participants
	if participants == nil {
		participants = make([]core.ProcID, 0, c.N-1)
		for q := core.ProcID(0); int(q) < c.N; q++ {
			if q != c.Initiator {
				participants = append(participants, q)
			}
		}
	}
	for _, q := range participants {
		if !c.brd[q] {
			c.violations = append(c.violations, Violation{
				Property: "Correctness",
				Detail:   fmt.Sprintf("process %d never received broadcast %v", q, c.token),
				Step:     step,
			})
		}
		acks := c.fck[q]
		switch {
		case len(acks) == 0:
			c.violations = append(c.violations, Violation{
				Property: "Correctness",
				Detail:   fmt.Sprintf("no acknowledgment from %d for %v", q, c.token),
				Step:     step,
			})
		case len(acks) > 1:
			c.violations = append(c.violations, Violation{
				Property: "Decision",
				Detail:   fmt.Sprintf("%d acknowledgments from %d within one computation, want exactly 1", len(acks), q),
				Step:     step,
			})
		case c.ExpectFck != nil:
			if want := c.ExpectFck(q, c.token); !acks[0].Equal(want) {
				c.violations = append(c.violations, Violation{
					Property: "Decision",
					Detail:   fmt.Sprintf("decision used feedback %v from %d, want %v (stale or fabricated acknowledgment)", acks[0], q, want),
					Step:     step,
				})
			}
		}
	}
}

// Violations returns the violations observed so far.
func (c *PIFChecker) Violations() []Violation { return c.violations }

// MutexChecker verifies Specification 3's Correctness clause: if a
// requesting process enters the critical section, it executes it alone —
// among requesting processes. The paper's footnote 1 is explicit that
// processes placed inside the critical section by the arbitrary initial
// configuration (zombies) are outside the guarantee; PrimeZombie marks
// those, and overlaps involving them are tallied separately rather than
// reported as violations.
type MutexChecker struct {
	// servedIn maps processes currently inside a served (post-start)
	// critical section to the step at which they entered.
	servedIn map[core.ProcID]int
	// zombieIn holds processes occupying the critical section since the
	// initial configuration.
	zombieIn map[core.ProcID]bool

	entries        int
	zombieOverlaps int
	violations     []Violation
}

var _ core.ProtocolObserver = (*MutexChecker)(nil)

// IgnoresTraffic marks the checker as reading protocol events only.
func (*MutexChecker) IgnoresTraffic() {}

// NewMutexChecker returns an empty checker.
func NewMutexChecker() *MutexChecker {
	return &MutexChecker{
		servedIn: make(map[core.ProcID]int),
		zombieIn: make(map[core.ProcID]bool),
	}
}

// PrimeZombie registers that process p occupies the critical section in
// the initial configuration.
func (c *MutexChecker) PrimeZombie(p core.ProcID) { c.zombieIn[p] = true }

// OnEvent consumes one event.
func (c *MutexChecker) OnEvent(e core.Event) {
	switch e.Kind {
	case core.EvEnterCS:
		if e.Note != core.NoteRequested {
			// A non-requested entry: the arbitrary initial configuration
			// fabricated the conditions (corrupted Request = In, phase,
			// privileges). Footnote 1 places it outside the guarantee;
			// track its occupancy like an initial occupant.
			c.zombieIn[e.Proc] = true
			return
		}
		c.entries++
		// Report concurrent occupants in process order: the violation
		// list must not depend on map iteration order.
		occupants := make([]core.ProcID, 0, len(c.servedIn))
		for other := range c.servedIn {
			if other != e.Proc {
				occupants = append(occupants, other)
			}
		}
		sort.Slice(occupants, func(i, j int) bool { return occupants[i] < occupants[j] })
		for _, other := range occupants {
			c.violations = append(c.violations, Violation{
				Property: "Correctness",
				Detail:   fmt.Sprintf("processes %d and %d are in the critical section concurrently", other, e.Proc),
				Step:     e.Step,
			})
		}
		if len(c.zombieIn) > 0 {
			c.zombieOverlaps++
		}
		c.servedIn[e.Proc] = e.Step
	case core.EvExitCS:
		delete(c.servedIn, e.Proc)
		delete(c.zombieIn, e.Proc)
	}
}

// Entries returns the number of served critical-section entries observed.
func (c *MutexChecker) Entries() int { return c.entries }

// ZombieOverlaps counts served entries that overlapped an
// initial-configuration occupant — permitted by the specification
// (footnote 1) but interesting to report.
func (c *MutexChecker) ZombieOverlaps() int { return c.zombieOverlaps }

// Violations returns the violations observed so far.
func (c *MutexChecker) Violations() []Violation { return c.violations }
