package engine

import (
	"sync"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/wire"
)

// pipe is an in-memory Link: the engine's own tests run on it, so what
// they pin — channels, groups, wiring — is checked without a socket.
// Frames queued in an atomic section reach the peer's Arrive at Flush.
type pipe struct {
	cfg   LinkConfig
	net   *pipeNet
	addr  string
	wired []string
	out   []pipeFrame
}

type pipeFrame struct {
	peer core.ProcID
	gid  uint64
	h    wire.LinkHeader
	msgs []core.Message
}

// pipeNet is the address space the pipes of one test share.
type pipeNet struct {
	mu     sync.Mutex
	byAddr map[string]*pipe
	// copies, if set, decides how many times a frame from -> to arrives:
	// 0 loses it, 2 duplicates it.
	copies func(from, to core.ProcID) int
}

// setCopies installs the net's loss and duplication rule.
func (pn *pipeNet) setCopies(f func(from, to core.ProcID) int) {
	pn.mu.Lock()
	pn.copies = f
	pn.mu.Unlock()
}

func (pn *pipeNet) transport() Transport {
	return Transport{FaultSalt: 1, Bind: func(cfg LinkConfig) (Link, error) {
		pn.mu.Lock()
		defer pn.mu.Unlock()
		p := &pipe{cfg: cfg, net: pn, addr: string(rune('a' + len(pn.byAddr))), wired: make([]string, cfg.Peers)}
		pn.byAddr[p.addr] = p
		return p, nil
	}}
}

func newPipeNet() *pipeNet { return &pipeNet{byAddr: make(map[string]*pipe)} }

func (p *pipe) Addr() string { return p.addr }
func (p *pipe) Start()       {}
func (p *pipe) Stop()        {}

func (p *pipe) Wire(peer core.ProcID, addr string) error {
	p.wired[peer] = addr
	return nil
}

func (p *pipe) Queue(g *Group, c *Chan, m core.Message) error {
	p.frame(g, c, false, m)
	g.Sent(c.Peer, 1)
	return nil
}

func (p *pipe) Control(g *Group, c *Chan, probe bool) {
	p.frame(g, c, probe)
	g.ControlSent(probe)
}

func (p *pipe) frame(g *Group, c *Chan, probe bool, msgs ...core.Message) {
	h := c.Stamp(probe)
	h.Count = len(msgs)
	p.out = append(p.out, pipeFrame{peer: c.Peer, gid: g.ID(), msgs: msgs, h: h})
}

func (p *pipe) Flush() {
	for _, f := range p.out {
		p.net.mu.Lock()
		peer, copies := p.net.byAddr[p.wired[f.peer]], 1
		if p.net.copies != nil {
			copies = p.net.copies(p.cfg.Self, f.peer)
		}
		p.net.mu.Unlock()
		p.cfg.IO.SendFrames.Add(1)
		for ; copies > 0; copies-- {
			peer.cfg.Arrive(p.cfg.Self, f.gid, []wire.LinkHeader{f.h}, f.msgs)
		}
	}
	p.out = p.out[:0]
}

func pifStacks(n int) ([]core.Stack, []*pif.PIF) {
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := range stacks {
		machines[i] = pif.New("pif", core.ProcID(i), n, pif.Callbacks{}, pif.WithCapacityBound(DefaultCapacity))
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestBroadcastOverPipes: the engine alone — channels and loops —
// carries a PIF broadcast to its decision within the capacity bound.
func TestBroadcastOverPipes(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(3)
	c, err := NewCluster(newPipeNet().transport(), stacks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	token := core.Payload{Tag: "hello", Num: 4}
	c.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	done := func() (ok bool) {
		c.Do(0, func(core.Env) { ok = machines[0].Done() && machines[0].BMes.Equal(token) })
		return ok
	}
	if !waitFor(20*time.Second, done) {
		t.Fatal("broadcast over pipes did not complete")
	}
	stats := c.TransportStats()
	if err := core.CheckWindows(stats); err != nil {
		t.Fatal(err)
	}
	for p, s := range stats {
		var sent int64
		for _, l := range s.Links {
			sent += l.Sent
		}
		if s.Sends == 0 || sent != s.Sends {
			t.Fatalf("node %d: Sends = %d, sum of Links.Sent = %d", p, s.Sends, sent)
		}
	}
}

// TestMailboxHoldsAtMostC: a node that is never activated keeps at most
// c messages per (sender, instance) mailbox, even from a peer that
// ignores the window; the rest are MailboxDrops.
func TestMailboxHoldsAtMostC(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(2)
	n, err := NewNode(newPipeNet().transport(), 0, stacks[0], "", []string{"", "peer"})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: nothing drains.
	for i := 1; i <= 100; i++ {
		n.arrive(1, 0, []wire.LinkHeader{{Instance: "pif", Seq: uint64(i), Count: 1}},
			[]core.Message{{Instance: "pif", Kind: pif.Kind}})
	}
	n.mbMu.Lock()
	held := len(n.g0.channel(1, "pif").box)
	n.mbMu.Unlock()
	if held != n.capacity {
		t.Fatalf("mailbox holds %d messages, want the bound %d", held, n.capacity)
	}
	if s := n.Stats(); s.Recvs != int64(held) || s.MailboxDrops != 100-int64(held) {
		t.Fatalf("Recvs = %d, MailboxDrops = %d; want %d and %d", s.Recvs, s.MailboxDrops, held, 100-held)
	}
}

// TestSetPeerKeepsToTopology: under a default-group topology a node
// never learns a non-neighbour's address, and a send to it is a counted
// sender-side loss, not a silent one.
func TestSetPeerKeepsToTopology(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(3)
	n, err := NewNode(newPipeNet().transport(), 0, stacks[0], "", []string{"", "one", "two"}, WithTopology(core.Line(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !n.wired[1] || n.wired[2] {
		t.Fatalf("wired = %v on the line 0-1-2, want only peer 1", n.wired)
	}
	n.Do(func(env core.Env) { env.Send(2, core.Message{Instance: "pif", Kind: pif.Kind}) })
	if s := n.Stats(); s.SendDrops != 1 || s.Sends != 0 {
		t.Fatalf("send to a non-neighbour: SendDrops = %d, Sends = %d; want 1 and 0", s.SendDrops, s.Sends)
	}
}

// TestNodeValidation: the engine rejects what no link could serve.
func TestNodeValidation(t *testing.T) {
	t.Parallel()
	tr := newPipeNet().transport()
	stacks, _ := pifStacks(2)
	peers := make([]string, 2)
	if _, err := NewNode(tr, 5, stacks[0], "", peers); err == nil {
		t.Error("out-of-range self accepted")
	}
	if _, err := NewNode(tr, 0, stacks[0], "", peers, WithCapacity(0)); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewNode(tr, 0, stacks[0], "", peers, WithBatch(0)); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := NewNode(tr, 0, nil, "", peers, WithTopology(core.Line(2))); err == nil {
		t.Error("group option accepted on a node with no default group")
	}
	if _, err := NewNode(tr, 0, stacks[0], "", peers, WithTopology(core.Line(3))); err == nil {
		t.Error("topology over the wrong process count accepted")
	}
	if _, err := NewCluster(tr, nil); err == nil {
		t.Error("empty cluster accepted")
	}
}
