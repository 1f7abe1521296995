package engine

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/wire"
)

// memoryFaultSalt is the salt the in-memory substrate has always seeded
// its injectors with, so recorded fault streams replay.
const memoryFaultSalt = 0x52

// Memory returns the in-memory transport, the third Link beside udp and
// tcp: the nodes bound through one returned value share an address space
// of their own, and a frame queued in an atomic section reaches its
// peer's Arrive, as the header and message values themselves, at that
// section's Flush. Nothing is encoded and no goroutine runs; the channel
// semantics — window, mailbox, fault plane — are the engine's, as on
// sockets.
func Memory() Transport { return new(memNet).transport() }

// memNet is one in-memory address space: a link's address is its index.
type memNet struct {
	mu    sync.Mutex
	links []*memLink
	// copies, if set (the engine's tests set it), decides how many times
	// a frame from -> to arrives: 0 loses it, 2 duplicates it.
	copies atomic.Pointer[func(from, to core.ProcID) int]
}

func (mn *memNet) transport() Transport {
	return Transport{FaultSalt: memoryFaultSalt, Bind: func(cfg LinkConfig) (Link, error) {
		mn.mu.Lock()
		defer mn.mu.Unlock()
		l := &memLink{cfg: cfg, net: mn, addr: strconv.Itoa(len(mn.links)), peers: make([]*memLink, cfg.Peers)}
		mn.links = append(mn.links, l)
		return l, nil
	}}
}

// memLink is one node's end of a memNet. Its outbound state needs no
// lock: the engine calls Queue, Control and Flush under the node's action
// mutex only.
type memLink struct {
	cfg   LinkConfig
	net   *memNet
	addr  string
	peers []*memLink
	out   []memFrame
}

// memFrame is one queued frame: a link header and, when its Count is 1,
// the message it heads, as the one-element slices Arrive takes.
type memFrame struct {
	to  *memLink
	gid uint64
	h   [1]wire.LinkHeader
	m   [1]core.Message
}

func (l *memLink) Addr() string { return l.addr }
func (l *memLink) Start()       {}
func (l *memLink) Stop()        {}

func (l *memLink) Wire(peer core.ProcID, addr string) error {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	i, err := strconv.Atoi(addr)
	if err != nil || i < 0 || i >= len(l.net.links) {
		return fmt.Errorf("engine: no in-memory link bound at %q", addr)
	}
	l.peers[peer] = l.net.links[i]
	return nil
}

func (l *memLink) Queue(g *Group, c *Chan, m core.Message) error {
	h := c.Stamp(false)
	h.Count = 1
	l.out = append(l.out, memFrame{to: l.peers[c.Peer], gid: g.ID(), h: [1]wire.LinkHeader{h}, m: [1]core.Message{m}})
	g.Sent(c.Peer, 1)
	return nil
}

func (l *memLink) Control(g *Group, c *Chan, probe bool) {
	l.out = append(l.out, memFrame{to: l.peers[c.Peer], gid: g.ID(), h: [1]wire.LinkHeader{c.Stamp(probe)}})
	g.ControlSent(probe)
}

// Flush hands every queued frame to its peer's Arrive, on the caller's
// goroutine and under the caller's action mutex: Arrive takes the
// receiving node's mailbox and injector locks and never an action mutex,
// so the lock order mu → mbMu → injMu holds across nodes.
func (l *memLink) Flush() {
	self := l.cfg.Self
	for i := range l.out {
		f := &l.out[i]
		copies := 1
		if rule := l.net.copies.Load(); rule != nil {
			copies = (*rule)(self, f.to.cfg.Self)
		}
		l.cfg.IO.SendFrames.Add(1)
		for ; copies > 0; copies-- {
			f.to.cfg.IO.RecvFrames.Add(1)
			f.to.cfg.Arrive(self, f.gid, f.h[:], f.m[:f.h[0].Count])
		}
	}
	clear(l.out) // drop the payload references
	l.out = l.out[:0]
}
