package engine

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// The tests in this file pin where in-memory mail is delivered (DESIGN.md
// §7): an idle receiver's drain runs on the sender's goroutine, a busy,
// unstarted or halted one is woken as on sockets, and no node's section
// is ever entered twice on one stack.

// hop records what it is delivered and, while a message's State says it
// has hops left, passes it on to the next process of the ring.
type hop struct {
	next      core.ProcID
	forward   bool
	got       atomic.Int64
	delivered chan struct{} // capacity 1: a Deliver ran

	// Whether the activation loop or its step tick ran the last Deliver,
	// and the most atomic sections — drains and Do bodies — any Deliver's
	// stack held.
	loop, tick atomic.Bool
	deepest    atomic.Int64
}

func (h *hop) Instance() string   { return "hop" }
func (h *hop) Step(core.Env) bool { return false }

func (h *hop) Deliver(env core.Env, _ core.ProcID, m core.Message) {
	counts := stackFrames("(*Node).drain", "(*Node).doGroup", "(*Node).actLoop", "(*Node).tick")
	sections := int64(counts[0] + counts[1])
	h.loop.Store(counts[2] > 0)
	h.tick.Store(counts[3] > 0)
	if sections > h.deepest.Load() { // Delivers at one node are serialized by its mu
		h.deepest.Store(sections)
	}
	h.got.Add(1)
	if h.forward && m.State > 0 {
		m.State--
		env.Send(h.next, m)
	}
	select {
	case h.delivered <- struct{}{}:
	default:
	}
}

// stackFrames counts, per name, the frames of the calling goroutine's
// stack whose function name ends in it.
func stackFrames(names ...string) []int {
	pcs := make([]uintptr, 1<<14)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	counts := make([]int, len(names))
	for {
		f, more := frames.Next()
		for i, name := range names {
			if strings.HasSuffix(f.Function, name) {
				counts[i]++
			}
		}
		if !more {
			return counts
		}
	}
}

// hops builds a ring of n hop machines, each forwarding if forward is set.
func hops(n int, forward bool) ([]core.Stack, []*hop) {
	stacks, machines := make([]core.Stack, n), make([]*hop, n)
	for i := range machines {
		machines[i] = &hop{next: core.ProcID((i + 1) % n), forward: forward, delivered: make(chan struct{}, 1)}
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

// running starts a cluster of stacks on the in-memory link and waits
// until every node's first tick has run and its timer parked: no loop
// holds or is about to take its node's action mutex.
func running(t *testing.T, stacks []core.Stack, opts ...Option) []*Node {
	t.Helper()
	c, err := NewCluster(Memory(), stacks, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i, n := range c.nodes {
		if !waitFor(10*time.Second, func() bool {
			n.mu.Lock()
			defer n.mu.Unlock()
			return n.next == never
		}) {
			t.Fatalf("node %d never parked", i)
		}
	}
	return c.nodes
}

// send has n send one hop message to to, with left hops to go.
func send(n *Node, to core.ProcID, left uint8) {
	n.Do(func(env core.Env) { env.Send(to, core.Message{Instance: "hop", Kind: "H", State: left}) })
}

// listed returns how many channels have mail at n.
func listed(n *Node) int {
	n.mbMu.Lock()
	defer n.mbMu.Unlock()
	return len(n.ready)
}

// TestSettleDeliversInline: on a running cluster of idle nodes, a Do at
// node 0 that sends to node 1 returns with node 1's Deliver already run,
// on the Do's own goroutine.
func TestSettleDeliversInline(t *testing.T) {
	stacks, machines := hops(3, false)
	nodes := running(t, stacks)
	send(nodes[0], 1, 0)
	var got int64
	var loop bool
	nodes[1].Do(func(core.Env) { got, loop = machines[1].got.Load(), machines[1].loop.Load() })
	if got != 1 || loop {
		t.Fatalf("node 1 delivered %d messages by the time node 0's Do returned (on its loop: %v); want 1, on the sender's goroutine", got, loop)
	}
	if k := listed(nodes[1]); k != 0 {
		t.Fatalf("%d channels still listed for mail at node 1", k)
	}
}

// TestSettleFallsBackToLoop: while node 1 is held inside a blocking Do,
// node 0's message to it is boxed and its loop is woken; the loop
// delivers it once that Do returns, from its mail wakeup, not from a
// step tick.
func TestSettleFallsBackToLoop(t *testing.T) {
	stacks, machines := hops(2, false)
	nodes := running(t, stacks)
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		nodes[1].Do(func(core.Env) {
			close(entered)
			<-release
		})
	}()
	<-entered
	send(nodes[0], 1, 0)
	if got, k := machines[1].got.Load(), listed(nodes[1]); got != 0 || k != 1 {
		close(release)
		t.Fatalf("node 1, busy: %d delivered, %d channels listed; want its message boxed", got, k)
	}
	// The loop takes the wakeup and waits for the action mutex: from here
	// on it can only drain.
	if !waitFor(10*time.Second, func() bool { return len(nodes[1].mail) == 0 }) {
		close(release)
		t.Fatal("node 1's loop was never woken for the boxed message")
	}
	close(release)
	<-done
	select {
	case <-machines[1].delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("node 1 never delivered its boxed message")
	}
	if !machines[1].loop.Load() || machines[1].tick.Load() {
		t.Fatalf("node 1 delivered on its loop %v, in a step tick %v; want its loop's drain, no tick", machines[1].loop.Load(), machines[1].tick.Load())
	}
}

// TestSettleRingDoesNotReenter: a ring of 64 nodes whose Deliver
// forwards to the next process carries a message twice round. Each hop
// drains inline on the goroutine that sent it until the ring reaches a
// node whose section is further up the stack, which its loop then takes
// up: no deadlock, and no stack ever holds more than one section per
// node. A hop never says a message twice, so the ring runs at c = 2: at
// c = 1 a node forwarding the second lap before the first lap's
// acknowledgment returned would find its window shut and lose the
// message, as the model allows.
func TestSettleRingDoesNotReenter(t *testing.T) {
	const n, laps = 64, 2
	stacks, machines := hops(n, true)
	nodes := running(t, stacks, WithCapacity(2))
	send(nodes[0], 1, n*laps-1)
	deadline := time.After(30 * time.Second)
	for machines[0].got.Load() < laps {
		select {
		case <-machines[0].delivered:
		case <-deadline:
			t.Fatalf("the ring stalled: node 0 got %d of %d laps", machines[0].got.Load(), laps)
		}
	}
	deepest := int64(0)
	for i, m := range machines {
		if got := m.got.Load(); got != laps {
			t.Fatalf("node %d delivered %d messages, want %d", i, got, laps)
		}
		deepest = max(deepest, m.deepest.Load())
	}
	if deepest > n {
		t.Fatalf("a Deliver ran under %d sections on one stack: some node's section was entered twice", deepest)
	}
	if deepest < 2 {
		t.Fatal("no hop drained inline")
	}
}

// TestSettleSkipsUnstartedAndStopped: a receiver whose loop is not
// running — never started, or halted — is never drained on the sender's
// goroutine: its message stays boxed, with the wakeup a loop would take.
func TestSettleSkipsUnstartedAndStopped(t *testing.T) {
	t.Run("unstarted", func(t *testing.T) {
		stacks, machines := hops(2, false)
		_, nodes := stillStacks(t, stacks)
		send(nodes[0], 1, 0)
		if got, k, woken := machines[1].got.Load(), listed(nodes[1]), len(nodes[1].mail); got != 0 || k != 1 || woken != 1 {
			t.Fatalf("unstarted node 1: %d delivered, %d channels listed, %d wakeups; want 0, 1, 1", got, k, woken)
		}
		pump(nodes)
		if got := machines[1].got.Load(); got != 1 {
			t.Fatalf("the drain delivered %d messages, want 1", got)
		}
	})
	t.Run("stopped", func(t *testing.T) {
		stacks, machines := hops(2, false)
		nodes := running(t, stacks)
		nodes[1].Stop()
		send(nodes[0], 1, 0)
		if got, k, woken := machines[1].got.Load(), listed(nodes[1]), len(nodes[1].mail); got != 0 || k != 1 || woken != 1 {
			t.Fatalf("stopped node 1: %d delivered, %d channels listed, %d wakeups; want 0, 1, 1", got, k, woken)
		}
		nodes[1].drainMail()
		if got := machines[1].got.Load(); got != 1 {
			t.Fatalf("a drain by hand delivered %d messages, want 1", got)
		}
	})
}
