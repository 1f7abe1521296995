// Package linktest holds the tests every engine.Link must pass, written
// once against the engine's API. Each link — udp, tcp, and the engine's
// in-memory one (engine.Memory) — describes itself as a Link and runs
// them from its own package's test files, so the behaviours the engine
// promises — the frames it packs, the capacity window seen from
// outside, group isolation on a mux, lose-on-full accounting — are
// checked on all three links without a copy per link.
package linktest

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// Link is one socket layer under test.
type Link struct {
	// Transport is the package's engine.Transport.
	Transport engine.Transport
	// NewRawPeer starts process 0 of a two-process system running stack
	// as group 0 (engine.Host's options), wired to a hand-driven stand-in
	// for process 1, and registers their teardown with t.
	NewRawPeer func(t *testing.T, stack core.Stack, opts ...engine.Option) RawPeer
}

// RawPeer is a hand-driven process 1: tests watch the exact frames the
// node under test writes and feed it arbitrary ones.
type RawPeer interface {
	Group() *engine.Group
	// Next returns the node's next link frame, if one arrives within d.
	Next(d time.Duration) (links []wire.LinkHeader, msgs []core.Message, ok bool)
	// Send writes one group-0 link frame to the node.
	Send(links []wire.LinkHeader, msgs ...core.Message)
	// Restart replaces the peer by a fresh one at the same address with
	// no memory of the link.
	Restart()
}

// WaitFor polls cond until it holds or d elapses.
func WaitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// CheckWindows registers the teardown assertion of every test that ran
// real nodes: no link's in-flight count ever exceeded the capacity
// bound.
func CheckWindows(t *testing.T, s core.TransportStatser) {
	t.Helper()
	t.Cleanup(func() {
		if err := core.CheckWindows(s.TransportStats()); err != nil {
			t.Error(err)
		}
	})
}

// Groups adapts groups to core.TransportStatser.
type Groups []*engine.Group

func (gs Groups) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(gs))
	for i, g := range gs {
		out[i] = g.Stats()
	}
	return out
}

// Host runs engine.Host: process self of len(peers) on tr at laddr,
// wired to the non-empty entries of peers, with stack as group 0. It
// registers the node's Stop and the window check with t; the node is not
// started.
func Host(t *testing.T, tr engine.Transport, self core.ProcID, stack core.Stack, laddr string, peers []string, opts ...engine.Option) *engine.Group {
	t.Helper()
	g, err := engine.Host(tr, self, stack, laddr, peers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Node().Stop)
	CheckWindows(t, Groups{g})
	return g
}

// PIFStacks builds one acknowledging PIF stack per process at the
// default capacity bound.
func PIFStacks(n int) ([]core.Stack, []*pif.PIF) {
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		self := core.ProcID(i)
		machines[i] = pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(engine.DefaultCapacity))
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

// At0 is process 0's atomic section on sub, in the shape of Group.Do.
func At0(sub core.Substrate) func(func(core.Env)) {
	return func(f func(core.Env)) { sub.Do(0, f) }
}

// Broadcast drives one PIF broadcast of token at the process whose
// atomic section is do (a Group.Do, or At0 of a cluster) and waits for
// its decision.
func Broadcast(t *testing.T, do func(func(core.Env)), m *pif.PIF, token core.Payload) {
	t.Helper()
	invoked := WaitFor(t, 20*time.Second, func() bool {
		var ok bool
		do(func(env core.Env) { ok = m.Invoke(env, token) })
		return ok
	})
	if !invoked {
		t.Fatal("Invoke never accepted (prior computation never terminated)")
	}
	done := WaitFor(t, 30*time.Second, func() bool {
		var ok bool
		do(func(core.Env) { ok = m.Done() && m.BMes.Equal(token) })
		return ok
	})
	if !done {
		t.Fatalf("broadcast %v did not complete", token)
	}
}

// Recorder is a sink machine: it keeps every delivered message.
type Recorder struct {
	Inst string
	mu   sync.Mutex
	got  []core.Message
}

func (r *Recorder) Instance() string   { return r.Inst }
func (r *Recorder) Step(core.Env) bool { return false }
func (r *Recorder) Deliver(_ core.Env, _ core.ProcID, m core.Message) {
	r.mu.Lock()
	r.got = append(r.got, m)
	r.mu.Unlock()
}

// Snapshot returns the messages delivered so far.
func (r *Recorder) Snapshot() []core.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]core.Message(nil), r.got...)
}

// Freeze holds the action mutex of g's node until the returned release
// is called: drains stop, the link keeps boxing.
func Freeze(g *engine.Group) (release func()) {
	done := make(chan struct{})
	frozen := make(chan struct{})
	go g.Do(func(core.Env) {
		close(frozen)
		<-done
	})
	<-frozen
	return func() { close(done) }
}

// attach is Mux.Attach with the teardown window check.
func attach(t *testing.T, m *engine.Mux, stacks []core.Stack, opts ...engine.Option) *engine.Cluster {
	t.Helper()
	c, err := m.Attach(stacks, opts...)
	if err != nil {
		t.Fatal(err)
	}
	CheckWindows(t, c)
	return c
}

func newMux(t *testing.T, l Link, n int) *engine.Mux {
	t.Helper()
	m, err := engine.NewMux(l.Transport, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// MuxHostsIndependentClusters runs two PIF clusters over one link per
// process and checks both complete with their own tokens: each cluster
// counts its own messages, and both rode the same frame stream.
func MuxHostsIndependentClusters(t *testing.T, l Link) {
	const n = 3
	m := newMux(t, l, n)
	stacksA, machA := PIFStacks(n)
	stacksB, machB := PIFStacks(n)
	ca, cb := attach(t, m, stacksA), attach(t, m, stacksB)
	if ca.Group() == cb.Group() || ca.Group() == 0 {
		t.Fatalf("group ids %d and %d must be distinct and nonzero", ca.Group(), cb.Group())
	}
	Broadcast(t, At0(ca), machA[0], core.Payload{Tag: "a", Num: 1})
	Broadcast(t, At0(cb), machB[0], core.Payload{Tag: "b", Num: 2})

	var sa, sb core.TransportStats
	quiet := WaitFor(t, 5*time.Second, func() bool {
		sa, sb = ca.TransportStats()[0], cb.TransportStats()[0]
		return sa.SendDatagrams == sb.SendDatagrams
	})
	if sa.Sends == 0 || sb.Sends == 0 {
		t.Fatalf("per-cluster Sends: a=%d b=%d, want both > 0", sa.Sends, sb.Sends)
	}
	if !quiet || sa.SendDatagrams == 0 {
		t.Fatalf("socket-level SendDatagrams differ across views: a=%d b=%d", sa.SendDatagrams, sb.SendDatagrams)
	}
}

// MuxIsolation is the crossing test: cluster A runs under an aggressive
// corruption/drop plan while cluster B runs clean on the same links. B
// must complete untouched — no injected faults — and while only A has
// run, every per-link counter of B reads zero and A's add up to its
// totals. pressure, if not nil, runs once both clusters are attached, to
// aim link-specific garbage at A's group id.
func MuxIsolation(t *testing.T, l Link, pressure func(m *engine.Mux, gidA uint64)) {
	const n = 3
	m := newMux(t, l, n)
	plan := &core.FaultPlan{
		Seed:    11,
		Default: core.LinkFaults{DropRate: 0.20, CorruptRate: 0.20, DupRate: 0.10},
	}
	stacksA, machA := PIFStacks(n)
	stacksB, machB := PIFStacks(n)
	ca, cb := attach(t, m, stacksA, engine.WithFaults(plan)), attach(t, m, stacksB)
	if pressure != nil {
		pressure(m, ca.Group())
	}
	Broadcast(t, At0(ca), machA[0], core.Payload{Tag: "a", Num: 5})
	// linkTotals sums a cluster's Sends, and what its Links[] count.
	linkTotals := func(c *engine.Cluster) (sends, sent, all int64) {
		for _, s := range c.TransportStats() {
			sends += s.Sends
			for _, l := range s.Links {
				sent += l.Sent
				all += l.Sent + l.Received + l.Dropped
			}
		}
		return sends, sent, all
	}
	if _, _, all := linkTotals(cb); all != 0 {
		t.Fatalf("idle cluster B counts %d messages on its links after traffic on A only", all)
	}
	// A snapshot taken between two sends reads the counters apart.
	if !WaitFor(t, 5*time.Second, func() bool {
		sends, sent, _ := linkTotals(ca)
		return sends > 0 && sent == sends
	}) {
		t.Fatal("cluster A: Sends never equals the sum of Links.Sent")
	}
	Broadcast(t, At0(cb), machB[0], core.Payload{Tag: "b", Num: 6})

	var faultsA, faultsB int64
	for _, s := range ca.TransportStats() {
		faultsA += s.Faults.Total()
	}
	for _, s := range cb.TransportStats() {
		faultsB += s.Faults.Total()
	}
	if faultsA == 0 {
		t.Fatal("cluster A's fault plan injected nothing")
	}
	if faultsB != 0 {
		t.Fatalf("clean cluster B saw %d injected faults: fault plane leaked across groups", faultsB)
	}
}

// MuxClusterCloseDetaches: closing one cluster leaves its siblings
// running on the shared links.
func MuxClusterCloseDetaches(t *testing.T, l Link) {
	const n = 2
	m := newMux(t, l, n)
	stacksA, machA := PIFStacks(n)
	stacksB, machB := PIFStacks(n)
	ca, cb := attach(t, m, stacksA), attach(t, m, stacksB)
	Broadcast(t, At0(ca), machA[0], core.Payload{Tag: "a", Num: 1})
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	Broadcast(t, At0(cb), machB[0], core.Payload{Tag: "b", Num: 2})
}

// IdleIsSilent: a decided request leaves the sockets quiet. 50 ms
// after the decision the closing acknowledgments have left as echo-only
// frames, and 50 ms after that not one more frame has: eager stepping
// adds no idle chatter and the timer has nothing to repeat.
func IdleIsSilent(t *testing.T, l Link) {
	const n = 3
	m := newMux(t, l, n)
	stacks, machines := PIFStacks(n)
	c := attach(t, m, stacks)
	Broadcast(t, At0(c), machines[0], core.Payload{Tag: "once", Num: 1})
	frames := func() (sent int64) {
		for _, s := range c.TransportStats() {
			sent += s.SendDatagrams
		}
		return sent
	}
	time.Sleep(50 * time.Millisecond)
	settled := frames()
	time.Sleep(50 * time.Millisecond)
	if again := frames(); again != settled || settled == 0 {
		t.Fatalf("idle cluster wrote %d frames in 50 ms (%d before)", again-settled, settled)
	}
}

// OneLoopPerNode: a socket node runs one carry loop from Start to Stop,
// and its timer parks beneath it. A cluster serves a request and every
// timer parks; a second request then completes within 2 s, on the loops
// that took the first one's mail. The in-memory link does not run it:
// there a loop lives only while a load outlasts a release's budget.
func OneLoopPerNode(t *testing.T, l Link) {
	const n = 3
	before := Goroutines(nil, carryLoop)
	loops := func(when string) {
		t.Helper()
		if k := len(Goroutines(before, carryLoop)); k != n {
			t.Fatalf("%s: %d carry loops run for %d nodes", when, k, n)
		}
	}
	m := newMux(t, l, n)
	loops("started")
	stacks, machines := PIFStacks(n)
	c := attach(t, m, stacks)
	for i := int64(1); i <= 2; i++ {
		begun := time.Now()
		Broadcast(t, At0(c), machines[0], core.Payload{Tag: "parked", Num: i})
		if d := time.Since(begun); i > 1 && d > 2*time.Second {
			t.Fatalf("a request to parked nodes took %v", d)
		}
		if !WaitFor(t, 5*time.Second, m.Parked) {
			t.Fatalf("request %d: a timer is still set 5 s on", i)
		}
		loops("parked")
	}
	m.Close()
	if !WaitFor(t, 5*time.Second, func() bool { return len(Goroutines(before, carryLoop)) == 0 }) {
		t.Fatalf("%d carry loops outlive Close", len(Goroutines(before, carryLoop)))
	}
}

// carryLoop is the frame ending the stack of a node's carry loop.
const carryLoop = "/transport/engine.(*Node).startCarry in goroutine "

// Goroutines returns the ids of the goroutines whose stack holds every
// one of frames, leaving out those in skip. "created by <function> in
// goroutine 7" ends each stack, even before it first runs, and names the
// function that started it.
func Goroutines(skip map[string]bool, frames ...string) map[string]bool {
	buf := make([]byte, 1<<16)
	k := runtime.Stack(buf, true)
	for ; k == len(buf); k = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	found := make(map[string]bool)
	for _, stack := range strings.Split(string(buf[:k]), "\n\n") {
		// "goroutine 42 [state]:" heads each stack.
		missing := func(frame string) bool { return !strings.Contains(stack, frame) }
		if f := strings.Fields(stack); len(f) > 1 && !skip[f[1]] && !slices.ContainsFunc(frames, missing) {
			found[f[1]] = true
		}
	}
	return found
}

// MuxRejectsNodeLevelAttachOptions: socket-level knobs are fixed at
// NewMux; passing them per cluster must fail loudly.
func MuxRejectsNodeLevelAttachOptions(t *testing.T, l Link) {
	m := newMux(t, l, 2)
	stacks, _ := PIFStacks(2)
	if _, err := m.Attach(stacks, engine.WithBatch(4)); err == nil {
		t.Fatal("WithBatch accepted per attached cluster")
	}
	if _, err := m.Attach(stacks, engine.WithCapacity(4)); err == nil {
		t.Fatal("WithCapacity accepted per attached cluster")
	}
}

// OneFramePerSection is the frame contract every link carries out: what
// one atomic section sends to one peer — here one message to each of k
// instances — reaches the peer as one frame, a header per instance, each
// over its one record.
func OneFramePerSection(t *testing.T, l Link) {
	const k = 4
	stack := make(core.Stack, k)
	for i := range stack {
		stack[i] = &Recorder{Inst: fmt.Sprintf("rec%d", i)}
	}
	p := l.NewRawPeer(t, stack)
	p.Group().Do(func(env core.Env) {
		for _, m := range stack {
			env.Send(1, core.Message{Instance: m.Instance(), Kind: "K"})
		}
	})
	links, msgs, ok := p.Next(5 * time.Second)
	if !ok {
		t.Fatal("no frame from the node")
	}
	if len(links) != k || len(msgs) != k {
		t.Fatalf("one section's sends to %d instances arrived as a frame of %d headers over %d messages, want %d and %d",
			k, len(links), len(msgs), k, k)
	}
	for i, h := range links {
		if h.Instance != stack[i].Instance() || h.Count != 1 || msgs[i].Instance != h.Instance {
			t.Fatalf("header %d = %+v over %v, want %q over its one message", i, h, msgs[i], stack[i].Instance())
		}
	}
}

// FrameAtBudget: a section's worth of maximal-blob messages arrives
// complete and in order, in frames the byte budget keeps within one
// datagram — frames past the pre-v4 stream bound, which every link's
// reader must take.
func FrameAtBudget(t *testing.T, l Link) {
	const k = 8
	p := l.NewRawPeer(t, core.Stack{&Recorder{Inst: "rec"}}, engine.WithCapacity(k))
	blob := bytes.Repeat([]byte{7}, wire.MaxBlobLen)
	p.Group().Do(func(env core.Env) {
		for i := 0; i < k; i++ {
			env.Send(1, core.Message{Instance: "rec", Kind: "K", B: core.Payload{Num: int64(i), Blob: blob}})
		}
	})
	got, frames, largest := 0, 0, 0
	for got < k {
		links, msgs, ok := p.Next(5 * time.Second)
		if !ok {
			t.Fatalf("%d of %d messages arrived, in %d frames", got, k, frames)
		}
		frame, err := wire.AppendLinkFrame(nil, 0, links, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) > wire.MaxDatagram {
			t.Fatalf("frame %d is %d bytes, above wire.MaxDatagram", frames, len(frame))
		}
		largest = max(largest, len(frame))
		for _, m := range msgs {
			if m.B.Num != int64(got) || !bytes.Equal(m.B.Blob, blob) {
				t.Fatalf("message %d arrived as Num %d with a %d-byte blob", got, m.B.Num, len(m.B.Blob))
			}
			got++
		}
		frames++
	}
	if frames == k || largest <= 2*wire.MaxBlobLen+8<<10 {
		t.Fatalf("%d messages in %d frames, the largest %d bytes: the budget packed nothing past the pre-v4 stream bound", k, frames, largest)
	}
}

// initiator starts a raw peer's node on a PIF initiator that broadcasts
// toward the peer.
func initiator(t *testing.T, l Link) RawPeer {
	t.Helper()
	m := pif.New("pif", 0, 2, pif.Callbacks{}, pif.WithCapacityBound(engine.DefaultCapacity))
	p := l.NewRawPeer(t, core.Stack{m})
	p.Group().Do(func(env core.Env) {
		if !m.Invoke(env, core.Payload{Tag: "hello", Num: 1}) {
			t.Error("Invoke rejected")
		}
	})
	return p
}

// drain reads what the node has written and what it writes in the next
// 100ms (probes never stop) and returns the messages and probes seen.
func drain(p RawPeer) (data, probes int) {
	for until := time.Now().Add(100 * time.Millisecond); time.Now().Before(until); {
		links, msgs, ok := p.Next(20 * time.Millisecond)
		if !ok {
			continue
		}
		data += len(msgs)
		for _, h := range links {
			if h.Probe {
				probes++
			}
		}
	}
	return data, probes
}

// SilentPeerSeesAtMostCMessages is the capacity bound observed from
// outside: an initiator retransmitting every step toward a peer that
// reads nothing must leave at most c messages with that peer. Without
// the window the step timer alone puts ~150 there in 300ms.
func SilentPeerSeesAtMostCMessages(t *testing.T, l Link) {
	p := initiator(t, l)
	time.Sleep(300 * time.Millisecond)
	data, probes := drain(p)
	if data < 1 || data > engine.DefaultCapacity {
		t.Fatalf("silent peer was sent %d messages, want 1..%d", data, engine.DefaultCapacity)
	}
	if probes == 0 {
		t.Fatal("a shut window under retransmission sent no probe")
	}
}

// reopens answers the node's probes and reports how many more probes
// arrived before fresh data did: the link must reopen within two probe
// intervals of the first answer.
func reopens(t *testing.T, p RawPeer) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	answered, extra := false, 0
	for time.Now().Before(deadline) {
		links, msgs, ok := p.Next(time.Second)
		if !ok {
			continue
		}
		if answered && len(msgs) > 0 {
			return extra
		}
		for _, h := range links {
			if !h.Probe {
				continue
			}
			if answered {
				extra++
			}
			answered = true
			p.Send([]wire.LinkHeader{{Instance: h.Instance, Ack: h.Seq}})
		}
	}
	t.Fatal("window never reopened after the peer answered a probe")
	return 0
}

// ProbeReopensShutWindow: the peer swallows everything — no echo ever
// comes back — then starts answering probes; and then is replaced by a
// fresh peer with no memory of the link. Neither a lost echo nor a
// restarted peer may wedge the window. It returns the peer for
// link-specific follow-up assertions.
func ProbeReopensShutWindow(t *testing.T, l Link) RawPeer {
	p := initiator(t, l)
	time.Sleep(50 * time.Millisecond)
	drain(p)
	if extra := reopens(t, p); extra > 2 {
		t.Fatalf("window reopened only after %d further probes, want <= 2", extra)
	}
	p.Restart()
	if extra := reopens(t, p); extra > 2 {
		t.Fatalf("after a restart the window reopened only after %d further probes, want <= 2", extra)
	}
	return p
}

// hold parks the section running a machine callback — a socket node's
// loop, or on the in-memory link whichever goroutine runs it: once armed,
// the next callback to reach wait reports its instance on entered and
// blocks there, under the action mutex, until open is closed.
type hold struct {
	armed   atomic.Bool
	entered chan string
	open    chan struct{}
	once    sync.Once
}

func (h *hold) release() { h.once.Do(func() { close(h.open) }) }

func newHold() *hold {
	return &hold{entered: make(chan string, 1), open: make(chan struct{})}
}

func (h *hold) wait(inst string) {
	if h.armed.CompareAndSwap(true, false) {
		h.entered <- inst
		<-h.open
	}
}

// held is a sink machine whose Step and Deliver pass through a hold.
type held struct {
	inst          string
	step, deliver *hold
}

func (m held) Instance() string                            { return m.inst }
func (m held) Step(core.Env) bool                          { m.step.wait(m.inst); return false }
func (m held) Deliver(core.Env, core.ProcID, core.Message) { m.deliver.wait(m.inst) }

// ReboxOverflowIsLost pins the lose-on-full contract across the start of
// a crash window: a message is lost where it arrives — at a full mailbox,
// as a MailboxDrop reported as EvLose and charged to its link — and
// nowhere else. The run parks a drain in a Deliver with a second
// instance's mail still boxed, overfills both mailboxes meanwhile
// (duplicates included), and lets the drain go inside the window, where
// it finds the group down and leaves that mail alone.
func ReboxOverflowIsLost(t *testing.T, l Link) {
	const c = 2
	const crashAt = time.Second
	var loses atomic.Int64
	plan := &core.FaultPlan{
		Seed:    5,
		Unit:    crashAt,
		Default: core.LinkFaults{DupRate: 0.3},
		Crashes: []core.CrashWindow{{Proc: 0, From: 1, Until: 1 << 40}},
	}
	step, deliver := newHold(), newHold()
	start := time.Now()
	p := l.NewRawPeer(t, core.Stack{held{"a", step, deliver}, held{"b", step, deliver}},
		engine.WithCapacity(c), engine.WithFaults(plan),
		engine.WithObserver(core.ObserverFunc(func(e core.Event) {
			if e.Kind == core.EvLose {
				loses.Add(1)
			}
		})))
	started := time.Now()
	g := p.Group()
	defer step.release() // a failed run must not leave the loop parked
	defer deliver.release()

	var s core.TransportStats
	sent := 0
	both := func(seq uint64) {
		t.Helper()
		sent += 2
		p.Send([]wire.LinkHeader{{Instance: "a", Seq: seq}, {Instance: "b", Seq: seq}},
			core.Message{Instance: "a", Kind: "K"}, core.Message{Instance: "b", Kind: "K"})
		if !WaitFor(t, 5*time.Second, func() bool {
			s = g.Stats()
			return s.Recvs+s.MailboxDrops == int64(sent)+s.Faults.Duplicates &&
				loses.Load() == s.MailboxDrops && s.Links[0].Dropped == s.MailboxDrops
		}) {
			t.Fatalf("%d messages sent, not all boxed or dropped as EvLose on their link: %+v, %d EvLose", sent, s, loses.Load())
		}
	}

	// Mail for both instances is boxed while the loop sits in a Step; the
	// drain that follows takes one instance's mailbox and parks delivering
	// its first message, the other's mail still boxed.
	step.armed.Store(true)
	<-step.entered
	both(1)
	deliver.armed.Store(true)
	step.release()
	first := <-deliver.entered
	// c+1 more arrivals each: at least one overflows the mailbox the drain
	// emptied, at least two the one that still holds its first message.
	for seq := uint64(2); seq <= c+2; seq++ {
		both(seq)
	}
	if time.Since(start) >= crashAt {
		t.Skip("host too slow: the crash window opened before the mailboxes were full")
	}
	before := s.MailboxDrops
	if before < 3 {
		t.Fatalf("drain parked on %q: MailboxDrops = %d, want >= 3: overflow is lost on arrival", first, before)
	}

	// Inside the crash window the drain finishes the mailbox it took and
	// finds the group down for the other: nothing more is lost.
	time.Sleep(time.Until(started.Add(crashAt + 20*time.Millisecond)))
	deliver.release()
	g.Do(func(core.Env) {}) // returns once the parked section is over
	s = g.Stats()
	if s.MailboxDrops != before || loses.Load() != before || s.Links[0].Dropped != before {
		t.Fatalf("releasing the drain inside the crash window: MailboxDrops %d -> %d, %d EvLose, Links[0].Dropped = %d; mail held through a crash window is not touched",
			before, s.MailboxDrops, loses.Load(), s.Links[0].Dropped)
	}
	if d := s.Faults.Total() - s.Faults.Duplicates; d != 0 {
		t.Fatalf("%d injected faults beyond duplicates: not the run this test sets up (%+v)", d, s.Faults)
	}
}
