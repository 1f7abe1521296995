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
// §7): an idle receiver's drain runs on the sender's goroutine, a busy
// one's in the release of the section that held it, an unstarted one's
// when it starts, a halted one's never; and no node's action mutex is
// ever held twice on one stack.

// hop records what it is delivered and, while a message's State says it
// has hops left, passes it on to the next process of the ring.
type hop struct {
	next      core.ProcID
	forward   bool
	got       atomic.Int64
	delivered chan struct{} // capacity 1: a Deliver ran

	// Whether the last Deliver ran in a release after its section's
	// unlock, on the carry loop a release handed owed mail to, or in a step
	// tick; whether any Deliver ran on a carry loop; and the most sections
	// holding their node's action mutex any Deliver's stack held.
	released, handed, tick, carried atomic.Bool
	deepest                         atomic.Int64
}

func (h *hop) Instance() string   { return "hop" }
func (h *hop) Step(core.Env) bool { return false }

func (h *hop) Deliver(env core.Env, _ core.ProcID, m core.Message) {
	counts := stackFrames("(*Node).flush", "(*Node).release", "(*Node).carry", "(*Node).ticked")
	// Every section that holds its mu further up the stack is writing its
	// frames (flush → Write → settle), and this Deliver's node holds its
	// own: a release frame whose section unlocked is not counted.
	sections := int64(counts[0] + 1)
	h.released.Store(counts[1] > 0)
	h.handed.Store(counts[2] > 0)
	if counts[2] > 0 {
		h.carried.Store(true)
	}
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
// until every node's first tick has run and its timer parked: no timer
// callback holds or is about to take its node's action mutex.
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
			defer n.release()
			return n.next == never
		}) {
			t.Fatalf("node %d never parked", i)
		}
	}
	return c.nodes
}

// send has n send one hop message to to, with left hops to go.
func send(n *Node, to core.ProcID, left uint8) {
	group0(n).Do(func(env core.Env) { env.Send(to, core.Message{Instance: "hop", Kind: "H", State: left}) })
}

// listed returns how many channels have mail at n.
func listed(n *Node) int {
	n.mbMu.Lock()
	defer n.mbMu.Unlock()
	return len(n.ready)
}

// TestSettleDeliversInline: on a running cluster of idle nodes, a Do at
// node 0 that sends to node 1 returns with node 1's Deliver already run,
// on the Do's own goroutine, inside the Do's section.
func TestSettleDeliversInline(t *testing.T) {
	stacks, machines := hops(3, false)
	nodes := running(t, stacks)
	send(nodes[0], 1, 0)
	var got int64
	var released, handed, tick bool
	group0(nodes[1]).Do(func(core.Env) {
		got, released = machines[1].got.Load(), machines[1].released.Load()
		handed, tick = machines[1].handed.Load(), machines[1].tick.Load()
	})
	if got != 1 || released || handed || tick {
		t.Fatalf("node 1 delivered %d messages by the time node 0's Do returned (in a release %v, handed off %v, in a tick %v); want 1, inside the sender's section",
			got, released, handed, tick)
	}
	if k := listed(nodes[1]); k != 0 {
		t.Fatalf("%d channels still listed for mail at node 1", k)
	}
}

// TestSettleFallsBackToRelease: while node 1 is held inside a blocking
// Do, node 0's message to it is boxed and owed. The Do's own release
// delivers it, on the Do's goroutine, before the Do returns: no carry
// loop and no step tick takes it.
func TestSettleFallsBackToRelease(t *testing.T) {
	stacks, machines := hops(2, false)
	nodes := running(t, stacks)
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var atReturn atomic.Int64
	go func() {
		defer close(done)
		group0(nodes[1]).Do(func(core.Env) {
			close(entered)
			<-release
		})
		atReturn.Store(machines[1].got.Load())
	}()
	<-entered
	send(nodes[0], 1, 0)
	if got, k, owed := machines[1].got.Load(), listed(nodes[1]), nodes[1].owed.Load(); got != 0 || k != 1 || !owed {
		close(release)
		t.Fatalf("node 1, busy: %d delivered, %d channels listed, owed %v; want its message boxed and owed", got, k, owed)
	}
	close(release)
	<-done
	if got := atReturn.Load(); got != 1 {
		t.Fatalf("node 1's Do returned with %d messages delivered; want its release to deliver the boxed one", got)
	}
	if m := machines[1]; !m.released.Load() || m.handed.Load() || m.tick.Load() {
		t.Fatalf("node 1 delivered in a release %v, handed off %v, in a step tick %v; want the Do's release, no tick",
			m.released.Load(), m.handed.Load(), m.tick.Load())
	}
}

// TestSettleRingDoesNotReenter: a ring of 64 nodes whose Deliver
// forwards to the next process carries a message twice round. Each hop
// drains inline on the goroutine that sent it until the ring reaches a
// node whose section is further up the stack, whose release then takes
// it up: no deadlock, and no stack ever holds more than one node's
// action mutex per node. A hop never says a message twice, so the ring
// runs at c = 2: at c = 1 a node forwarding the second lap before the
// first lap's acknowledgment returned would find its window shut and lose
// the message, as the model allows.
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
		t.Fatalf("a Deliver ran under %d sections holding their mutex on one stack: some node's was taken twice", deepest)
	}
	if deepest < 2 {
		t.Fatal("no hop drained inline")
	}
}

// TestSettleSkipsUnstartedAndStopped: a receiver that is not running —
// never started, or halted — is never drained on the sender's goroutine
// or by its own sections' releases: its message stays boxed and owed. An
// unstarted node's start delivers it; a halted node's stays.
func TestSettleSkipsUnstartedAndStopped(t *testing.T) {
	t.Run("unstarted", func(t *testing.T) {
		stacks, machines := hops(2, false)
		_, nodes := stillStacks(t, stacks)
		send(nodes[0], 1, 0)
		group0(nodes[1]).Do(func(core.Env) {})
		if got, k, owed := machines[1].got.Load(), listed(nodes[1]), nodes[1].owed.Load(); got != 0 || k != 1 || !owed {
			t.Fatalf("unstarted node 1: %d delivered, %d channels listed, owed %v; want 0, 1, true", got, k, owed)
		}
		nodes[1].Start()
		t.Cleanup(nodes[1].Stop)
		if got, k := machines[1].got.Load(), listed(nodes[1]); got != 1 || k != 0 {
			t.Fatalf("node 1's start delivered %d messages, left %d channels listed; want 1, 0", got, k)
		}
	})
	t.Run("stopped", func(t *testing.T) {
		stacks, machines := hops(2, false)
		nodes := running(t, stacks)
		nodes[1].Stop()
		send(nodes[0], 1, 0)
		group0(nodes[1]).Do(func(core.Env) {})
		if got, k, owed := machines[1].got.Load(), listed(nodes[1]), nodes[1].owed.Load(); got != 0 || k != 1 || !owed {
			t.Fatalf("stopped node 1: %d delivered, %d channels listed, owed %v; want 0, 1, true", got, k, owed)
		}
		nodes[1].drainMail()
		if got := machines[1].got.Load(); got != 1 {
			t.Fatalf("a drain by hand delivered %d messages, want 1", got)
		}
	})
}
