package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/wire"
)

// The tests in this file drive unstarted nodes by hand: no activation
// loop runs, so no timer fires, and the test decides when mail is
// drained (pump) and when the step tick runs (Node.tick, ticks). Their
// clocks stand still between the test's own moves (pin, advance). What
// they pin is therefore exact: which atomic section sent what, and what
// the timer would be set for (armed).

// setCopies installs the net's loss and duplication rule.
func (mn *memNet) setCopies(f func(from, to core.ProcID) int) { mn.copies.Store(&f) }

// pin holds n's clock at its last reading, by moving its epoch that far
// before now: the next section reads it again, plus the microseconds it
// has run, however long the test took in between.
func pin(n *Node) {
	n.mu.Lock()
	n.epoch = time.Now().Add(-n.now)
	n.release()
}

// advance moves the clock of every node d forward and pins it there.
func advance(nodes []*Node, d time.Duration) {
	for _, n := range nodes {
		n.mu.Lock()
		n.now += d
		n.release()
		pin(n)
	}
}

// ticks runs the step tick at every node, clocks pinned.
func ticks(nodes []*Node) {
	for _, n := range nodes {
		pin(n)
		n.tick()
	}
}

// armed reports whether n owes anything: whether its timer, had it a
// loop, would be set rather than parked.
func armed(n *Node) bool {
	n.mu.Lock()
	defer n.release()
	return n.wake != never
}

// repeats records, per sender and peer, the retransmissions that left.
type repeats struct {
	mu   sync.Mutex
	seen map[[2]core.ProcID]int
}

func (r *repeats) OnEvent(ev core.Event) {
	if ev.Kind == core.EvSend && ev.Note == "retransmit" {
		r.mu.Lock()
		if r.seen == nil {
			r.seen = make(map[[2]core.ProcID]int)
		}
		r.seen[[2]core.ProcID{ev.Proc, ev.Peer}]++
		r.mu.Unlock()
	}
}

func (r *repeats) on(from, to core.ProcID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[[2]core.ProcID{from, to}]
}

// still builds n wired, unstarted PIF nodes on one in-memory net.
func still(t *testing.T, n int, opts ...Option) (*memNet, []*Node, []*pif.PIF) {
	t.Helper()
	stacks, machines := pifStacks(n)
	pn, nodes := stillStacks(t, stacks, opts...)
	return pn, nodes, machines
}

// stillStacks builds wired, unstarted nodes running stacks on one
// in-memory net.
func stillStacks(t *testing.T, stacks []core.Stack, opts ...Option) (*memNet, []*Node) {
	t.Helper()
	pn := new(memNet)
	nodes := make([]*Node, len(stacks))
	for i := range nodes {
		g, err := Host(pn.transport(), core.ProcID(i), stacks[i], "", make([]string, len(stacks)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = g.n
	}
	for _, node := range nodes {
		for j, other := range nodes {
			if err := node.SetPeer(core.ProcID(j), other.Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pn, nodes
}

// group0 is the group Host attached to n.
func group0(n *Node) *Group { return n.groups.Load().byID[0] }

// pump drains mail at every node until none is left anywhere.
func pump(nodes []*Node) {
	for busy := true; busy; {
		busy = false
		for _, n := range nodes {
			n.mbMu.Lock()
			ready := len(n.ready)
			n.mbMu.Unlock()
			if ready > 0 {
				pin(n)
				n.drainMail()
				busy = true
			}
		}
	}
}

// drainMail runs the drain section under the action mutex, as a node's
// loop does for a wakeup.
func (n *Node) drainMail() {
	n.mu.Lock()
	n.drain()
	n.release()
}

func waiting(n *Node) int {
	n.mu.Lock()
	defer n.release()
	return group0(n).waiters.Len()
}

// broadcasting is the façade's injected idiom: the condition issues the
// request on its first evaluation and holds once it decided.
func broadcasting(m *pif.PIF, token core.Payload) func(core.Env) bool {
	injected := false
	return func(env core.Env) bool {
		if !injected {
			injected = m.Invoke(env, token)
			return false
		}
		return m.Done() && m.BMes.Equal(token)
	}
}

// request submits a broadcast of token at node and returns the channel
// its completion arrives on, once its first atomic section is over.
func request(t *testing.T, node *Node, m *pif.PIF, token core.Payload) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	pin(node)
	group0(node).Submit(broadcasting(m, token), func(_ core.Env, err error) { errc <- err })
	if k := waiting(node); k != 1 {
		t.Fatalf("%d requests registered after Submit, want 1", k)
	}
	return errc
}

// settled asserts the broadcast behind errc decided and woke its waiter
// in an atomic section already over: nothing is registered any more,
// and no loop, ticker or sleep exists that could have done it later.
func settled(t *testing.T, node *Node, errc <-chan error) {
	t.Helper()
	if k := waiting(node); k != 0 {
		t.Fatalf("%d conditions still registered once the mail was drained", k)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func totals(nodes []*Node) (sends, retransmits int64) {
	for _, n := range nodes {
		s := group0(n).Stats()
		sends += s.Sends
		retransmits += s.Retransmits
	}
	return sends, retransmits
}

// warm runs one whole broadcast, after which every flag of every
// process stands at the top and a broadcast costs its minimum.
func warm(t *testing.T, nodes []*Node, machines []*pif.PIF) {
	t.Helper()
	errc := request(t, nodes[0], machines[0], core.Payload{Tag: "warm"})
	pump(nodes)
	settled(t, nodes[0], errc)
}

// TestChannelTableIsWholeAtAttach: a group's channel records all exist
// once it attaches, before any traffic: per neighbour, one per instance in
// stack order, served by that stack slot; none toward self or a
// non-neighbour. Host's nodes get their peers' addresses by SetPeer after
// the attach, a mux's before it; wiring adds no record either way.
func TestChannelTableIsWholeAtAttach(t *testing.T) {
	const n = 4
	stacks := make([]core.Stack, n)
	for i := range stacks {
		self := core.ProcID(i)
		stacks[i] = core.Stack{pif.New("a", self, n, pif.Callbacks{}), pif.New("b", self, n, pif.Callbacks{})}
	}
	whole := func(t *testing.T, g *Group) {
		t.Helper()
		degree, records := n-1, 0
		if g.topo != nil {
			degree = g.topo.Degree(g.n.self)
		}
		for p := range g.peers {
			pl := &g.peers[p]
			for i := range pl.chans {
				c := &pl.chans[i]
				if c.g != g || c.Peer != core.ProcID(p) || c.mach != g.stack[i] || c.Instance != g.stack[i].Instance() {
					t.Fatalf("node %d: record %d toward %d is %s toward %d; want stack slot %d", g.n.self, i, p, c.Instance, c.Peer, i)
				}
			}
			if len(pl.chans) != 0 && (p == int(g.n.self) || g.topo != nil && !g.topo.HasEdge(g.n.self, core.ProcID(p))) {
				t.Fatalf("node %d: %d records toward %d, no neighbour", g.n.self, len(pl.chans), p)
			}
			records += len(pl.chans)
		}
		if want := degree * len(g.stack); records != want {
			t.Fatalf("node %d: %d channel records; want %d neighbours × %d instances", g.n.self, records, degree, len(g.stack))
		}
	}
	for name, opts := range map[string][]Option{"complete": nil, "line": {WithTopology(core.Line(n))}} {
		t.Run(name, func(t *testing.T) {
			pn := new(memNet)
			groups := make([]*Group, n)
			for i := range groups {
				g, err := Host(pn.transport(), core.ProcID(i), stacks[i], "", make([]string, n), opts...)
				if err != nil {
					t.Fatal(err)
				}
				groups[i] = g
				whole(t, g)
			}
			for _, g := range groups {
				for _, other := range groups {
					if err := g.n.SetPeer(other.n.self, other.n.Addr()); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, g := range groups {
				whole(t, g)
			}
			mux, err := NewMux(Memory(), n)
			if err != nil {
				t.Fatal(err)
			}
			defer mux.Close()
			c, err := mux.Attach(stacks, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range c.groups {
				whole(t, g)
			}
		})
	}
}

// TestWarmBroadcastIs4cPlus4SendsPerPeer: with no timer at all, a warm
// n = 3 broadcast completes in exactly 4(c+1)(n-1) sends — 2c+2 flags
// and as many echoes per peer, 24 at the default c = 2 — and wakes its
// waiter on the last echo.
func TestWarmBroadcastIs4cPlus4SendsPerPeer(t *testing.T) {
	_, nodes, machines := still(t, 3)
	warm(t, nodes, machines)
	before, _ := totals(nodes)
	errc := request(t, nodes[0], machines[0], core.Payload{Tag: "hello", Num: 4})
	pump(nodes)
	settled(t, nodes[0], errc)
	after, retransmits := totals(nodes)
	if want := int64(4 * (DefaultCapacity + 1) * 2); after-before != want || retransmits != 0 {
		t.Fatalf("warm broadcast took %d sends (%d retransmissions), want %d and 0", after-before, retransmits, want)
	}
}

// TestDuplicateEchoCostsNothing: a duplicated echo makes the initiator
// step once more, and everything that Step says was said already — the
// broadcast still costs 4(c+1)(n-1) sends. Without the last-message
// filter the copy doubles every later round.
func TestDuplicateEchoCostsNothing(t *testing.T) {
	pn, nodes, machines := still(t, 3)
	warm(t, nodes, machines)
	before, _ := totals(nodes)
	echoes := 0
	pn.setCopies(func(from, to core.ProcID) int {
		if from == 1 && to == 0 {
			if echoes++; echoes == 3 {
				return 2
			}
		}
		return 1
	})
	errc := request(t, nodes[0], machines[0], core.Payload{Tag: "hello", Num: 5})
	pump(nodes)
	settled(t, nodes[0], errc)
	if echoes < 3 {
		t.Fatalf("only %d echoes seen, none duplicated", echoes)
	}
	after, _ := totals(nodes)
	if want := int64(4 * (DefaultCapacity + 1) * 2); after-before != want {
		t.Fatalf("broadcast with one duplicated echo took %d sends, want %d", after-before, want)
	}
}

// TestTickRecoversDroppedFlag: a lost flag stalls its link until its
// repeat deadline, half a step after the flag left: the first tick at
// or past it repeats the flag, and the broadcast
// costs exactly one retransmission on top of its 4(c+1)(n-1) sends. It
// runs at c = 2, where the window has room for the repeat: at c = 1 the
// lost flag holds the only slot, the repeat is refused and probes, and
// it leaves once the answer reopened the window.
func TestTickRecoversDroppedFlag(t *testing.T) {
	stacks, machines := pifStacksAt(3, 2)
	pn, nodes := stillStacks(t, stacks, WithCapacity(2))
	warm(t, nodes, machines)
	before, _ := totals(nodes)
	flags := 0
	pn.setCopies(func(from, to core.ProcID) int {
		if from == 0 && to == 1 {
			if flags++; flags == 4 {
				return 0
			}
		}
		return 1
	})
	errc := request(t, nodes[0], machines[0], core.Payload{Tag: "hello", Num: 6})
	pump(nodes)
	// The lost flag was node 0's last send toward 1; what node 0 sent
	// after it, toward 2, only moved its clock on by microseconds.
	for _, d := range []time.Duration{0, stepInterval / 4} {
		advance(nodes, d)
		ticks(nodes)
		pump(nodes)
		if waiting(nodes[0]) != 1 {
			t.Fatalf("broadcast decided with the lost flag's deadline %v ahead", stepInterval/2-d)
		}
	}
	advance(nodes, stepInterval/4) // half a step after the loss
	ticks(nodes)
	pump(nodes)
	settled(t, nodes[0], errc)
	after, retransmits := totals(nodes)
	if want := int64(4*(2+1)*2 + 1); after-before != want || retransmits != 1 {
		t.Fatalf("%d sends, %d retransmissions; want %d and 1", after-before, retransmits, want)
	}
}

// TestStalledLinkIsNotStarved: the deadline is per link. While the
// handshake with process 2 advances before every tick, the link to
// process 1, which hears nothing, still repeats at each of its
// deadlines — half a step after the request, then a step apart — and
// the busy link never does. The window is roomWindow, so the silent link
// has room for the three repeats.
func TestStalledLinkIsNotStarved(t *testing.T) {
	var seen repeats
	pn, nodes, machines := still(t, 3, WithObserver(&seen), WithCapacity(roomWindow))
	warm(t, nodes, machines)
	pn.setCopies(func(from, to core.ProcID) int {
		if from == 0 && to == 1 {
			return 0
		}
		return 1
	})
	request(t, nodes[0], machines[0], core.Payload{Tag: "hello", Num: 7})
	round := func() {
		pin(nodes[2])
		nodes[2].drainMail()
		pin(nodes[0])
		nodes[0].drainMail()
	}
	ticks(nodes[:1]) // both links sent in the section that started the request
	if _, r := totals(nodes); r != 0 {
		t.Fatalf("%d retransmissions at the first tick, on links that had just sent", r)
	}
	for i, d := range []time.Duration{stepInterval / 2, stepInterval, stepInterval} {
		advance(nodes, d)
		round()
		ticks(nodes[:1])
		if _, r := totals(nodes); r != int64(i+1) || seen.on(0, 1) != i+1 {
			t.Fatalf("after %d more ticks: %d retransmissions, %d toward 1; want one per tick, all toward 1", i+1, r, seen.on(0, 1))
		}
	}
	var toward2 uint8
	group0(nodes[0]).Do(func(core.Env) { toward2 = machines[0].State[2] })
	if toward2 < 3 || seen.on(0, 2) != 0 {
		t.Fatalf("handshake with process 2 stands at %d after %d retransmissions toward it; want 3 rounds done and none",
			toward2, seen.on(0, 2))
	}
}

// roomWindow is the window of the tests that need room for more repeats
// than DefaultCapacity-1: a link holds its message and c-1 unanswered
// copies, and these tests watch the spacing of several.
const roomWindow = 4

// lossyPair builds two still nodes whose link 0 → 1 loses everything,
// and starts a broadcast at node 0: its flag toward 1 is the one message
// the link carries, repeated or refused from then on.
func lossyPair(t *testing.T, opts ...Option) []*Node {
	t.Helper()
	pn, nodes, machines := still(t, 2, opts...)
	pn.setCopies(func(from, to core.ProcID) int {
		if from == 0 {
			return 0
		}
		return 1
	})
	request(t, nodes[0], machines[0], core.Payload{Tag: "lost"})
	return nodes
}

// TestRepeatBacksOffToStepInterval: a link that stays silent repeats
// half a step after its last new message, then a whole step apart —
// until its window of c is full of unanswered copies. It runs at
// roomWindow, so the back-off shows in more than one repeat.
func TestRepeatBacksOffToStepInterval(t *testing.T) {
	nodes := lossyPair(t, WithCapacity(roomWindow))
	var at []time.Duration
	for now := time.Duration(0); now <= 8*stepInterval; now += stepInterval / 4 {
		if now > 0 {
			advance(nodes, stepInterval/4)
		}
		ticks(nodes)
		if s := group0(nodes[0]).Stats(); s.Retransmits > int64(len(at)) {
			at = append(at, now)
		}
	}
	want := []time.Duration{stepInterval / 2, 3 * stepInterval / 2, 5 * stepInterval / 2}
	if len(at) != len(want) || len(want) != roomWindow-1 {
		t.Fatalf("repeats left at %v, want %v: the window holds the flag and c-1 copies", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("repeats left at %v, want %v", at, want)
		}
	}
}

// TestRetransmitsCountRepeatsThatLeft: a repeat the full window refuses
// is a window loss, not also a retransmission. Over 20 step ticks a
// step apart the link carries the flag and c-1 repeats; the other 17
// repeats are lost at the sender.
func TestRetransmitsCountRepeatsThatLeft(t *testing.T) {
	nodes := lossyPair(t)
	for i := 0; i < 20; i++ {
		advance(nodes[:1], stepInterval)
		nodes[0].tick()
	}
	s := group0(nodes[0]).Stats()
	if s.Sends != DefaultCapacity || s.Retransmits != DefaultCapacity-1 || s.SendDrops != 20-(DefaultCapacity-1) {
		t.Fatalf("%d sends, %d retransmissions, %d send drops; want %d, %d and %d",
			s.Sends, s.Retransmits, s.SendDrops, DefaultCapacity, DefaultCapacity-1, 20-(DefaultCapacity-1))
	}
}

// TestIdleDisarmsRetransmission: once a request decided, the ticks that
// find every armed link past its deadline — each answered, so no stack
// says its last message again — repeat nothing, and every node parks
// once the acknowledgments its last deliveries owed have left as echoes:
// no link armed, no window owing control, no tick due.
func TestIdleDisarmsRetransmission(t *testing.T) {
	_, nodes, machines := still(t, 3)
	warm(t, nodes, machines)
	before, _ := totals(nodes)
	for i, n := range nodes {
		if !armed(n) {
			t.Fatalf("node %d: no timer set after sending", i)
		}
	}
	ticks(nodes)
	for i, n := range nodes {
		if !armed(n) {
			t.Fatalf("node %d: timer parked before any deadline passed", i)
		}
	}
	advance(nodes, stepInterval)
	ticks(nodes)
	pump(nodes)
	for i, n := range nodes {
		if armed(n) {
			t.Fatalf("node %d: timer still set once every deadline passed and the echoes left", i)
		}
	}
	after, retransmits := totals(nodes)
	if after != before || retransmits != 0 {
		t.Fatalf("the idle tick sent %d messages, %d retransmissions; want none", after-before, retransmits)
	}
	// The initiator consumed the last echoes and had nothing to say back:
	// their acknowledgments left on their own, one frame per peer.
	if s := group0(nodes[0]).Stats(); s.EchoFrames != 2 {
		t.Fatalf("initiator sent %d echo frames, want 2", s.EchoFrames)
	}
}

// TestCrashWindowSuppressesEagerStepping: inside a crash window a group
// neither steps — not from Await, not from the timer — nor delivers;
// the request the condition injected starts when the window ends.
func TestCrashWindowSuppressesEagerStepping(t *testing.T) {
	var delivered int
	var mu sync.Mutex
	plan := &core.FaultPlan{Unit: time.Hour, Crashes: []core.CrashWindow{{Proc: 0, From: 0, Until: 1}}}
	_, nodes, machines := still(t, 2, WithFaults(plan), WithObserver(core.ObserverFunc(func(ev core.Event) {
		if ev.Kind == core.EvDeliver && ev.Proc == 0 {
			mu.Lock()
			delivered++
			mu.Unlock()
		}
	})))
	for _, n := range nodes {
		group0(n).epoch = time.Now() // the first hour: process 0 is down
	}
	// Mail already in transit when the window opened stays in its box.
	nodes[0].mbMu.Lock()
	nodes[0].box(group0(nodes[0]).channel(1, "pif"), core.Message{Instance: "pif", Kind: pif.Kind})
	nodes[0].mbMu.Unlock()
	request(t, nodes[0], machines[0], core.Payload{Tag: "hello", Num: 8})
	nodes[0].tick()
	nodes[0].drainMail()
	var req core.ReqState
	group0(nodes[0]).Do(func(core.Env) { req = machines[0].Request })
	mu.Lock()
	if req != core.Wait || delivered != 0 || group0(nodes[0]).Stats().Sends != 0 {
		t.Fatalf("inside the crash window: Request = %v, %d deliveries, %d sends; want Wait, 0, 0",
			req, delivered, group0(nodes[0]).Stats().Sends)
	}
	mu.Unlock()
	group0(nodes[0]).epoch = time.Now().Add(-2 * time.Hour) // the window is over
	nodes[0].drainMail()
	group0(nodes[0]).Do(func(core.Env) { req = machines[0].Request })
	mu.Lock()
	defer mu.Unlock()
	if req != core.In || delivered != 1 || group0(nodes[0]).Stats().Sends == 0 {
		t.Fatalf("after the crash window: Request = %v, %d deliveries, %d sends; want In, 1, some",
			req, delivered, group0(nodes[0]).Stats().Sends)
	}
}

// deliveries records, in order, B.Num of every message handed to a
// Deliver at process 0.
type deliveries struct {
	mu   sync.Mutex
	nums []int64
}

func (d *deliveries) OnEvent(ev core.Event) {
	if ev.Kind == core.EvDeliver && ev.Proc == 0 {
		d.mu.Lock()
		d.nums = append(d.nums, ev.Msg.B.Num)
		d.mu.Unlock()
	}
}

func (d *deliveries) snapshot() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int64(nil), d.nums...)
}

// upTo reports whether the deliveries are exactly 1..k, in order.
func (d *deliveries) upTo(k int) bool {
	nums := d.snapshot()
	if len(nums) != k {
		return false
	}
	for i, num := range nums {
		if num != int64(i+1) {
			return false
		}
	}
	return true
}

// from1 is one frame from process 1 carrying one message numbered num.
func from1(n *Node, seq uint64, num int64) {
	n.arrive(1, 0, []wire.LinkHeader{{Instance: "pif", Seq: seq, Count: 1}},
		[]core.Message{{Instance: "pif", Kind: pif.Kind, B: core.Payload{Num: num}}})
}

// TestCrashWindowHoldsBoxedMail: mail that arrived before a crash window opens
// — a full mailbox of c messages — waits the window out where it is: no
// drain and no tick delivers, moves or loses it, and the first tick after
// the window delivers it in arrival order.
func TestCrashWindowHoldsBoxedMail(t *testing.T) {
	var got deliveries
	plan := &core.FaultPlan{Unit: time.Hour, Crashes: []core.CrashWindow{{Proc: 0, From: 1, Until: 2}}}
	_, nodes, _ := still(t, 2, WithFaults(plan), WithObserver(&got))
	n := nodes[0]
	group0(n).epoch = time.Now() // hour 0: up
	for i := 1; i <= DefaultCapacity; i++ {
		from1(n, uint64(i), int64(i))
	}
	group0(n).epoch = time.Now().Add(-time.Hour) // hour 1: down
	n.drainMail()
	n.tick()
	n.drainMail()
	n.mbMu.Lock()
	inBox := len(group0(n).channel(1, "pif").box)
	n.mbMu.Unlock()
	if s := group0(n).Stats(); inBox != DefaultCapacity || len(got.snapshot()) != 0 || s.MailboxDrops != 0 || s.Sends != 0 {
		t.Fatalf("inside the crash window: %d in the box, deliveries %v, %d mailbox drops, %d sends; want %d, none, 0, 0",
			inBox, got.snapshot(), s.MailboxDrops, s.Sends, DefaultCapacity)
	}
	group0(n).epoch = time.Now().Add(-2 * time.Hour) // hour 2: up again
	n.tick()
	if !got.upTo(DefaultCapacity) {
		t.Fatalf("first tick after the crash window delivered %v, want 1..%d in order", got.snapshot(), DefaultCapacity)
	}
	if s := group0(n).Stats(); s.MailboxDrops != 0 {
		t.Fatalf("%d mailbox drops", s.MailboxDrops)
	}
}

// TestDelayedMailSurfacesFromTick: a message the fault plan delays is in
// no mailbox until it comes due, and then the step tick alone — the node
// has no other timer — releases, boxes and delivers it.
func TestDelayedMailSurfacesFromTick(t *testing.T) {
	var got deliveries
	plan := &core.FaultPlan{Unit: time.Hour, Default: core.LinkFaults{DelayRate: 0.99, DelayTicks: 1}}
	_, nodes, _ := still(t, 2, WithFaults(plan), WithObserver(&got))
	n := nodes[0]
	group0(n).epoch = time.Now()
	from1(n, 1, 7)
	n.tick()
	if nums, s := got.snapshot(), group0(n).Stats(); len(nums) != 0 || s.Recvs != 0 || s.Faults.Delays != 1 {
		t.Fatalf("before the delay ran out: deliveries %v, Recvs = %d, Delays = %d; want none, 0, 1", nums, s.Recvs, s.Faults.Delays)
	}
	group0(n).epoch = time.Now().Add(-time.Hour)
	n.tick()
	if nums := got.snapshot(); len(nums) != 1 || nums[0] != 7 {
		t.Fatalf("tick after the delay ran out delivered %v, want [7]", nums)
	}
}

// TestProbeReleasesReorderHoldback: a reorder holdback that keeps its
// sender's window shut leaves with the sender's probe. The link 1 → 0
// holds back every message it can, so of c messages sent at once the
// last is held: it keeps the receiver's pipeline occupied, no
// acknowledgment covers the others, and the sender's next send is
// refused. The refusing section sends a probe — a header with no
// message — and that header's arrival carries the holdback out; the
// drain that delivers it answers the probe, so no tick runs at either
// end. The fault clock is in hours and reads 0 throughout:
// ReorderFlushGrace never passes, so nothing but the probe can release
// it.
func TestProbeReleasesReorderHoldback(t *testing.T) {
	var got deliveries
	plan := &core.FaultPlan{Unit: time.Hour, Links: map[core.LinkSel]core.LinkFaults{{From: 1, To: 0}: {ReorderRate: 0.999}}}
	_, nodes, _ := still(t, 2, WithFaults(plan), WithObserver(&got))
	for _, n := range nodes {
		group0(n).epoch = time.Now()
	}
	send := func(from, to int64) {
		group0(nodes[1]).Do(func(env core.Env) {
			for num := from; num <= to; num++ {
				env.Send(0, core.Message{Instance: "pif", Kind: pif.Kind, B: core.Payload{Num: num}})
			}
		})
	}
	held := func() int {
		g := group0(nodes[0])
		g.n.mbMu.Lock()
		defer g.n.mbMu.Unlock()
		return g.inj.Held()
	}
	send(1, DefaultCapacity)
	nodes[0].drainMail()
	nodes[0].tick() // the receiver's own tick releases nothing
	if !got.upTo(DefaultCapacity-1) || held() != 1 {
		t.Fatalf("after the window's worth: deliveries %v, %d held; want 1..%d and 1", got.snapshot(), held(), DefaultCapacity-1)
	}
	send(DefaultCapacity+1, DefaultCapacity+1) // refused, and the probe
	if s := group0(nodes[1]).Stats(); s.SendDrops != 1 || s.Links[0].InFlight != DefaultCapacity {
		t.Fatalf("sender: %d send drops, %d in flight; want the window shut at %d and the send refused",
			s.SendDrops, s.Links[0].InFlight, DefaultCapacity)
	}

	nodes[0].drainMail() // the delivery, and the probe's answer
	if s := group0(nodes[1]).Stats(); s.ProbeFrames != 1 || !got.upTo(DefaultCapacity) || held() != 0 {
		t.Fatalf("after %d probes: deliveries %v, %d held; want one probe to deliver 1..%d", s.ProbeFrames, got.snapshot(), held(), DefaultCapacity)
	}
	if l := group0(nodes[1]).Stats().Links[0]; l.InFlight != 0 || l.PeakInFlight > DefaultCapacity {
		t.Fatalf("sender's window after the answer: %d in flight, peak %d; want 0 and at most %d", l.InFlight, l.PeakInFlight, DefaultCapacity)
	}
}

// TestCorruptedMailIsLost: a message the fault plan corrupts never
// reaches a mailbox — the receiver reports it lost, once, and its window
// slot comes back exactly as a dropped message's does, so a window the
// plan emptied admits a full window again.
func TestCorruptedMailIsLost(t *testing.T) {
	var mu sync.Mutex
	lost, delivered := 0, 0
	plan := &core.FaultPlan{Links: map[core.LinkSel]core.LinkFaults{{From: 1, To: 0}: {CorruptRate: 0.999}}}
	_, nodes, _ := still(t, 2, WithFaults(plan), WithObserver(core.ObserverFunc(func(ev core.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case ev.Kind == core.EvLose && ev.Proc == 0:
			lost++
		case ev.Kind == core.EvDeliver && ev.Proc == 0:
			delivered++
		}
	})))
	for round := 1; round <= 2; round++ {
		group0(nodes[1]).Do(func(env core.Env) {
			for i := 0; i < DefaultCapacity; i++ {
				env.Send(0, core.Message{Instance: "pif", Kind: pif.Kind, B: core.Payload{Num: int64(i)}})
			}
		})
		nodes[0].drainMail()
		nodes[0].tick() // the acknowledgment finds nothing to ride on,
		nodes[0].tick() // and leaves as an echo at the second tick
		s0, s1 := group0(nodes[0]).Stats(), group0(nodes[1]).Stats()
		want := int64(round * DefaultCapacity)
		mu.Lock()
		if int64(lost) != want || delivered != 0 || s0.Faults.Corrupts != want || s0.Faults.Total() != want || s0.Recvs != 0 || s0.MailboxDrops != 0 {
			t.Fatalf("round %d: %d EvLose, %d deliveries, faults %+v, Recvs = %d, MailboxDrops = %d; want %d losses, all corrupts, and nothing else",
				round, lost, delivered, s0.Faults, s0.Recvs, s0.MailboxDrops, want)
		}
		mu.Unlock()
		if l := s1.Links[0]; s1.Sends != want || s1.SendDrops != 0 || l.InFlight != 0 || l.PeakInFlight > DefaultCapacity {
			t.Fatalf("round %d: sender counts %d sends, %d send drops, %d in flight, peak %d; want %d, 0, 0 and at most %d",
				round, s1.Sends, s1.SendDrops, l.InFlight, l.PeakInFlight, want, DefaultCapacity)
		}
	}
}

// TestUnroutedInstanceMailIsLost: a peer cannot grow a group's channel
// table by naming instances. A frame naming 1,000 instances the stack
// does not route, beside one it does, creates no record: every unrouted
// message is one EvLose and one drop on the sender's link, and the routed
// one is delivered.
func TestUnroutedInstanceMailIsLost(t *testing.T) {
	const unrouted = 1000
	var got deliveries
	var lost atomic.Int64
	_, nodes, _ := still(t, 2, WithObserver(&got), WithObserver(core.ObserverFunc(func(ev core.Event) {
		if ev.Kind == core.EvLose {
			lost.Add(1)
		}
	})))
	n := nodes[0]
	records := func() int {
		n.mbMu.Lock()
		defer n.mbMu.Unlock()
		return len(group0(n).peers[1].chans)
	}
	before, dropped := records(), group0(n).Stats().Links[0].Dropped
	links := []wire.LinkHeader{{Instance: "pif", Seq: 1, Count: 1}}
	msgs := []core.Message{{Instance: "pif", Kind: pif.Kind, B: core.Payload{Num: 1}}}
	for i := 0; i < unrouted; i++ {
		inst := fmt.Sprint("nope", i)
		links = append(links, wire.LinkHeader{Instance: inst, Seq: 9, Count: 1})
		msgs = append(msgs, core.Message{Instance: inst, Kind: "K"})
	}
	n.arrive(1, 0, links, msgs)
	if after := records(); after != before {
		t.Fatalf("%d channel records after the unrouted mail, %d before", after, before)
	}
	if d := group0(n).Stats().Links[0].Dropped - dropped; lost.Load() != unrouted || d != unrouted {
		t.Fatalf("%d EvLose, %d drops on the sender's link; want %d each", lost.Load(), d, unrouted)
	}
	n.drainMail()
	if !got.upTo(1) {
		t.Fatalf("deliveries %v; want the routed message 1", got.snapshot())
	}
	// Nor does a send on an unrouted instance make a record: it is lost
	// at the sender.
	drops := group0(n).Stats().SendDrops
	group0(n).Do(func(env core.Env) { env.Send(1, core.Message{Instance: "nope0", Kind: "K"}) })
	if after, d := records(), group0(n).Stats().SendDrops-drops; after != before || d != 1 {
		t.Fatalf("a send on an unrouted instance: %d records (%d before), %d send drops; want 1", after, before, d)
	}
}

// TestChannelsAreSafeForConcurrentUse drives everything that touches a
// channel record at once, for the race detector: sends both ways (admit,
// Stamp), their arrivals (Arrive, box), a third party boxing past the
// window, drains, ticks and Stats. No window ever exceeds c, and every
// message that arrived is accounted as received or dropped.
func TestChannelsAreSafeForConcurrentUse(t *testing.T) {
	const rounds = 1000
	_, nodes, _ := still(t, 2)
	var senders, driver sync.WaitGroup
	for p := range nodes {
		senders.Add(1)
		go func(p int) {
			defer senders.Done()
			for i := 0; i < rounds; i++ {
				group0(nodes[p]).Do(func(env core.Env) {
					env.Send(core.ProcID(1-p), core.Message{Instance: "pif", Kind: pif.Kind, B: core.Payload{Num: int64(i)}})
				})
			}
		}(p)
	}
	senders.Add(1)
	go func() {
		defer senders.Done()
		for i := 0; i < rounds; i++ {
			from1(nodes[0], 0, int64(i))
			group0(nodes[0]).Stats()
		}
	}()
	stop := make(chan struct{})
	driver.Add(1)
	go func() {
		defer driver.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, n := range nodes {
				n.drainMail()
				n.tick()
			}
		}
	}()
	senders.Wait()
	close(stop)
	driver.Wait()
	pump(nodes)

	stats := []core.TransportStats{group0(nodes[0]).Stats(), group0(nodes[1]).Stats()}
	if err := core.CheckWindows(stats); err != nil {
		t.Fatal(err)
	}
	for p, s := range stats {
		if peak := s.Links[0].PeakInFlight; peak < 1 {
			t.Fatalf("node %d: window peaked at %d, want 1..%d", p, peak, DefaultCapacity)
		}
	}
	if s, want := stats[0], stats[1].Sends+rounds; s.Recvs+s.MailboxDrops != want {
		t.Fatalf("node 0: Recvs %d + MailboxDrops %d, want the %d messages that arrived", s.Recvs, s.MailboxDrops, want)
	}
	if s, want := stats[1], stats[0].Sends; s.Recvs+s.MailboxDrops != want {
		t.Fatalf("node 1: Recvs %d + MailboxDrops %d, want the %d messages that arrived", s.Recvs, s.MailboxDrops, want)
	}
}

// TestAwaitTrueAtOnce: a condition that holds on its first evaluation
// returns from that atomic section, registering nothing — on a node
// that has no loop to wake anyone.
func TestAwaitTrueAtOnce(t *testing.T) {
	_, nodes, _ := still(t, 2)
	evals := 0
	if err := group0(nodes[0]).Await(context.Background(), func(core.Env) bool { evals++; return true }); err != nil {
		t.Fatal(err)
	}
	if evals != 1 || waiting(nodes[0]) != 0 {
		t.Fatalf("%d evaluations, %d registered; want 1 and 0", evals, waiting(nodes[0]))
	}
}

// TestAwaitEndsUnregistered: whatever ends a request other than its
// condition — closing its cluster, on a mux or on nodes of its own, or
// closing the mux under a cluster still attached, which halts the nodes
// — completes it and the one queued behind it with core.ErrClosed,
// leaves no request registered and no goroutine behind, and fails a
// later request at once.
func TestAwaitEndsUnregistered(t *testing.T) {
	never := func(core.Env) bool { return false }
	base := runtime.NumGoroutine()
	stacks, _ := pifStacks(2)
	c, err := NewCluster(Memory(), stacks)
	if err != nil {
		t.Fatal(err)
	}
	mux, err := NewMux(Memory(), 2)
	if err != nil {
		t.Fatal(err)
	}
	muxStacks, _ := pifStacks(2)
	view, err := mux.Attach(muxStacks)
	if err != nil {
		t.Fatal(err)
	}
	attachedStacks, _ := pifStacks(2)
	attached, err := mux.Attach(attachedStacks)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sub  core.Substrate
		g    *Group
		end  func()
	}{
		{"Cluster.Close on a mux", view, view.groups[0], func() { view.Close() }},
		{"Cluster.Close on its own nodes", c, c.groups[0], func() { c.Close() }},
		{"Mux.Close", attached, attached.groups[0], func() { mux.Close() }},
	} {
		registered := func() (k int) {
			tc.g.n.mu.Lock()
			defer tc.g.n.release()
			return tc.g.waiters.Len()
		}
		first, second := submitted(tc.sub, 0, never), submitted(tc.sub, 0, never)
		if k := registered(); k != 2 {
			t.Fatalf("%s: %d requests registered, want 2", tc.name, k)
		}
		tc.end()
		for _, errc := range []<-chan error{first, second} {
			if err := outcome(t, errc); !errors.Is(err, core.ErrClosed) {
				t.Fatalf("%s: request completed with %v, want core.ErrClosed", tc.name, err)
			}
		}
		if k := registered(); k != 0 {
			t.Fatalf("%s: %d requests left registered", tc.name, k)
		}
		if err := outcome(t, submitted(tc.sub, 0, never)); !errors.Is(err, core.ErrClosed) {
			t.Fatalf("%s: a later request completed with %v, want core.ErrClosed", tc.name, err)
		}
	}
	mux.Close()
	if !waitFor(10*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("%d goroutines left, %d before the clusters were built", runtime.NumGoroutine(), base)
	}
}

// TestConcurrentAwaitsSerialize: two requests awaited at one process of
// a running cluster take turns — the second's Invoke is refused until
// the first decided — so their computations never interleave.
func TestConcurrentAwaitsSerialize(t *testing.T) {
	var mu sync.Mutex
	var order []core.EventKind
	stacks, machines := pifStacks(3)
	c, err := NewCluster(Memory(), stacks, WithObserver(core.ObserverFunc(func(ev core.Event) {
		if ev.Proc == 0 && (ev.Kind == core.EvStart || ev.Kind == core.EvDecide) {
			mu.Lock()
			order = append(order, ev.Kind)
			mu.Unlock()
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := int64(1); i <= 2; i++ {
		wg.Add(1)
		go func(token core.Payload) {
			defer wg.Done()
			if err := c.Await(context.Background(), 0, broadcasting(machines[0], token)); err != nil {
				t.Error(err)
			}
		}(core.Payload{Tag: "turn", Num: i})
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []core.EventKind{core.EvStart, core.EvDecide, core.EvStart, core.EvDecide}
	if len(order) != len(want) {
		t.Fatalf("process 0 saw %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("process 0 saw %v, want %v", order, want)
		}
	}
}
