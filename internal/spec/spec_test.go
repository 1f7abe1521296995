package spec

import (
	"strings"
	"testing"

	"github.com/snapstab/snapstab/internal/core"
)

func ack(q core.ProcID, b core.Payload) core.Payload {
	return core.Payload{Tag: "ack", Num: b.Num*10 + int64(q)}
}

func newPIFChecker(n int) *PIFChecker {
	return &PIFChecker{N: n, Initiator: 0, Instance: "pif", ExpectFck: ack}
}

// feed delivers a canned event sequence for a clean computation of token
// on a 3-process system, optionally mutated by the caller.
func cleanComputation(token core.Payload) []core.Event {
	return []core.Event{
		{Kind: core.EvStart, Proc: 0, Instance: "pif", Note: token.String()},
		{Kind: core.EvRecvBrd, Proc: 1, Peer: 0, Instance: "pif", Msg: core.Message{Instance: "pif", B: token}},
		{Kind: core.EvRecvBrd, Proc: 2, Peer: 0, Instance: "pif", Msg: core.Message{Instance: "pif", B: token}},
		{Kind: core.EvRecvFck, Proc: 0, Peer: 1, Instance: "pif", Msg: core.Message{Instance: "pif", F: ack(1, token)}},
		{Kind: core.EvRecvFck, Proc: 0, Peer: 2, Instance: "pif", Msg: core.Message{Instance: "pif", F: ack(2, token)}},
		{Kind: core.EvDecide, Proc: 0, Instance: "pif", Note: token.String()},
	}
}

func TestPIFCheckerCleanRun(t *testing.T) {
	t.Parallel()
	token := core.Payload{Tag: "m", Num: 4}
	c := newPIFChecker(3)
	c.Arm(token)
	for _, e := range cleanComputation(token) {
		c.OnEvent(e)
	}
	if !c.Started() || !c.Decided() {
		t.Fatalf("Started=%v Decided=%v, want true/true", c.Started(), c.Decided())
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("clean run produced violations: %v", v)
	}
}

func TestPIFCheckerMissingBroadcast(t *testing.T) {
	t.Parallel()
	token := core.Payload{Tag: "m", Num: 4}
	c := newPIFChecker(3)
	c.Arm(token)
	for _, e := range cleanComputation(token) {
		if e.Kind == core.EvRecvBrd && e.Proc == 2 {
			continue // process 2 never receives m
		}
		c.OnEvent(e)
	}
	v := c.Violations()
	if len(v) != 1 || v[0].Property != "Correctness" || !strings.Contains(v[0].Detail, "process 2") {
		t.Fatalf("violations = %v, want one Correctness violation for process 2", v)
	}
}

func TestPIFCheckerMissingAck(t *testing.T) {
	t.Parallel()
	token := core.Payload{Tag: "m", Num: 4}
	c := newPIFChecker(3)
	c.Arm(token)
	for _, e := range cleanComputation(token) {
		if e.Kind == core.EvRecvFck && e.Peer == 1 {
			continue
		}
		c.OnEvent(e)
	}
	v := c.Violations()
	if len(v) != 1 || v[0].Property != "Correctness" || !strings.Contains(v[0].Detail, "no acknowledgment from 1") {
		t.Fatalf("violations = %v, want one missing-ack violation", v)
	}
}

func TestPIFCheckerStaleFeedback(t *testing.T) {
	t.Parallel()
	token := core.Payload{Tag: "m", Num: 4}
	c := newPIFChecker(3)
	c.Arm(token)
	for _, e := range cleanComputation(token) {
		if e.Kind == core.EvRecvFck && e.Peer == 2 {
			e.Msg.F = core.Payload{Tag: "stale"}
		}
		c.OnEvent(e)
	}
	v := c.Violations()
	if len(v) != 1 || v[0].Property != "Decision" || !strings.Contains(v[0].Detail, "stale") {
		t.Fatalf("violations = %v, want one Decision violation", v)
	}
}

func TestPIFCheckerDuplicateAck(t *testing.T) {
	t.Parallel()
	token := core.Payload{Tag: "m", Num: 4}
	c := newPIFChecker(3)
	c.Arm(token)
	for _, e := range cleanComputation(token) {
		c.OnEvent(e)
		if e.Kind == core.EvRecvFck && e.Peer == 1 {
			c.OnEvent(e) // duplicated acknowledgment within one computation
		}
	}
	v := c.Violations()
	if len(v) != 1 || v[0].Property != "Decision" {
		t.Fatalf("violations = %v, want one Decision violation for duplicate ack", v)
	}
}

func TestPIFCheckerIgnoresPreStartEvents(t *testing.T) {
	t.Parallel()
	// Garbage-driven receive-fck events before the start action must not
	// count toward the computation (footnote 1: no guarantee on
	// non-requested computations; the spec constrains the started one).
	token := core.Payload{Tag: "m", Num: 4}
	c := newPIFChecker(3)
	c.Arm(token)
	c.OnEvent(core.Event{Kind: core.EvRecvFck, Proc: 0, Peer: 1, Instance: "pif",
		Msg: core.Message{Instance: "pif", F: core.Payload{Tag: "garbage"}}})
	for _, e := range cleanComputation(token) {
		c.OnEvent(e)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("pre-start garbage caused violations: %v", v)
	}
}

func TestPIFCheckerIgnoresOtherInstances(t *testing.T) {
	t.Parallel()
	token := core.Payload{Tag: "m", Num: 4}
	c := newPIFChecker(3)
	c.Arm(token)
	c.OnEvent(core.Event{Kind: core.EvDecide, Proc: 0, Instance: "other", Note: token.String()})
	if c.Decided() {
		t.Fatal("decision on a different instance was counted")
	}
}

func TestPIFCheckerUnarmedIsInert(t *testing.T) {
	t.Parallel()
	c := newPIFChecker(3)
	for _, e := range cleanComputation(core.Payload{Tag: "m"}) {
		c.OnEvent(e)
	}
	if c.Started() || c.Decided() || len(c.Violations()) != 0 {
		t.Fatal("unarmed checker reacted to events")
	}
}

func TestMutexCheckerCleanAlternation(t *testing.T) {
	t.Parallel()
	c := NewMutexChecker()
	for i := 0; i < 5; i++ {
		p := core.ProcID(i % 3)
		c.OnEvent(core.Event{Kind: core.EvEnterCS, Proc: p, Step: i * 2, Note: core.NoteRequested})
		c.OnEvent(core.Event{Kind: core.EvExitCS, Proc: p, Step: i*2 + 1})
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("alternating CS produced violations: %v", v)
	}
	if c.Entries() != 5 {
		t.Fatalf("Entries() = %d, want 5", c.Entries())
	}
}

func TestMutexCheckerDetectsOverlap(t *testing.T) {
	t.Parallel()
	c := NewMutexChecker()
	c.OnEvent(core.Event{Kind: core.EvEnterCS, Proc: 1, Step: 1, Note: core.NoteRequested})
	c.OnEvent(core.Event{Kind: core.EvEnterCS, Proc: 2, Step: 2, Note: core.NoteRequested})
	v := c.Violations()
	if len(v) != 1 || v[0].Property != "Correctness" {
		t.Fatalf("violations = %v, want one overlap violation", v)
	}
	if !strings.Contains(v[0].Detail, "1") || !strings.Contains(v[0].Detail, "2") {
		t.Fatalf("violation detail %q does not name both processes", v[0].Detail)
	}
}

func TestMutexCheckerZombieOverlapNotViolation(t *testing.T) {
	t.Parallel()
	// Footnote 1: an initial-configuration occupant overlapping a served
	// entry is outside the guarantee.
	c := NewMutexChecker()
	c.PrimeZombie(2)
	c.OnEvent(core.Event{Kind: core.EvEnterCS, Proc: 1, Step: 1, Note: core.NoteRequested})
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("zombie overlap reported as violation: %v", v)
	}
	if c.ZombieOverlaps() != 1 {
		t.Fatalf("ZombieOverlaps() = %d, want 1", c.ZombieOverlaps())
	}
	// Once the zombie exits, later entries are clean.
	c.OnEvent(core.Event{Kind: core.EvExitCS, Proc: 2, Step: 2})
	c.OnEvent(core.Event{Kind: core.EvExitCS, Proc: 1, Step: 3})
	c.OnEvent(core.Event{Kind: core.EvEnterCS, Proc: 0, Step: 4, Note: core.NoteRequested})
	if c.ZombieOverlaps() != 1 {
		t.Fatalf("ZombieOverlaps() = %d after zombie exit, want 1", c.ZombieOverlaps())
	}
}

func TestMutexCheckerReentrySameProcess(t *testing.T) {
	t.Parallel()
	// The same process re-entering (new request served) while still
	// recorded inside would be an accounting bug, not a mutual exclusion
	// violation between two processes.
	c := NewMutexChecker()
	c.OnEvent(core.Event{Kind: core.EvEnterCS, Proc: 1, Step: 1, Note: core.NoteRequested})
	c.OnEvent(core.Event{Kind: core.EvEnterCS, Proc: 1, Step: 2, Note: core.NoteRequested})
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("self-overlap reported as violation: %v", v)
	}
}

func TestViolationString(t *testing.T) {
	t.Parallel()
	v := Violation{Property: "Correctness", Detail: "x", Step: 9}
	s := v.String()
	for _, want := range []string{"step 9", "Correctness", "x"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q missing %q", s, want)
		}
	}
}

// TestForwardCheckerFlagsEachViolation: the forwarding checker reports
// one violation per breach of Specification 2 — a second delivery, a
// delivery away from the destination, an undelivered item discarded —
// and none for an item delivered once at its destination or for items
// it was not armed with.
func TestForwardCheckerFlagsEachViolation(t *testing.T) {
	ev := func(kind core.EventKind, at core.ProcID, k FwdKey) core.Event {
		return core.Event{Kind: kind, Proc: at, Msg: core.Message{
			B: core.Payload{Num: k.Seq}, F: core.Payload{Num: core.PackRoute(k.Src, k.Dst)}}}
	}
	c := NewForwardChecker()
	once, twice, astray, lost := FwdKey{0, 2, 1}, FwdKey{0, 2, 2}, FwdKey{1, 0, 3}, FwdKey{2, 1, 4}
	for _, k := range []FwdKey{once, twice, astray, lost} {
		c.Arm(k)
	}
	for _, e := range []core.Event{
		ev(core.EvFwdDeliver, 2, once),
		ev(core.EvFwdDiscard, 1, once), // delivered already: not a loss
		ev(core.EvFwdDeliver, 2, twice),
		ev(core.EvFwdDeliver, 2, twice),
		ev(core.EvFwdDeliver, 2, astray),
		ev(core.EvFwdDiscard, 0, lost),
		ev(core.EvFwdDeliver, 1, FwdKey{1, 1, 9}), // never armed
	} {
		c.OnEvent(e)
	}
	var got []string
	for _, v := range c.Violations() {
		got = append(got, v.Property)
	}
	if want := "Duplication Correctness Loss"; strings.Join(got, " ") != want {
		t.Fatalf("violations %v, want %s", c.Violations(), want)
	}
	if !c.Delivered(once) || c.Delivered(lost) {
		t.Fatal("Delivered disagrees with the deliveries fed")
	}
}
