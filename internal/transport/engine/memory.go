package engine

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/snapstab/snapstab/internal/core"
)

// memoryFaultSalt is the salt the in-memory substrate has always seeded
// its injectors with, so recorded fault streams replay.
const memoryFaultSalt = 0x52

// Memory returns the in-memory transport, the third Link beside udp and
// tcp: the nodes bound through one returned value share an address space
// of their own, and the frames an atomic section closed reach their
// peers' mailboxes, as the header and message values themselves, as the
// section ends. They are the frames the sockets ship, packed and stamped
// by the same framer; only the encoding is skipped. The link runs no
// goroutine, nor does a node while its load quiesces: an idle receiver
// delivers its mail on the sender's goroutine (Node.settle), a busy one
// as the section holding its action mutex releases it (Node.release), and
// a node's timer runs its step tick from a time.AfterFunc callback. A
// load that outlasts a release's budget runs on the node's carry loop
// (Node.carry) until the timer parks. The channel semantics — window,
// mailbox, fault plane — are the engine's, as on sockets.
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

// memLink is one node's end of a memNet.
type memLink struct {
	cfg   LinkConfig
	net   *memNet
	addr  string
	peers []*memLink
	owed  []*Node // Write scratch: the receivers to settle; under the node's mu
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

// Write puts every frame in its peer's mailboxes, on the caller's
// goroutine and under the caller's action mutex, taking only the
// receiving node's mailbox lock; then, once the section's frames are all
// in — each link's in section order, so FIFO holds — it settles each
// receiver they left work for, once, in the order their first frames
// came. Settling tries a receiver's action mutex and never waits for one,
// so the lock order mu → mbMu holds across nodes. A peer with no node (a
// test's hand-driven end) gets its Arrive. Nothing can fail, so every
// frame counts as sent as it is handed over.
func (l *memLink) Write(frames []Frame) {
	self := l.cfg.Self
	for i := range frames {
		f := &frames[i]
		to := l.peers[f.To]
		copies := 1
		if rule := l.net.copies.Load(); rule != nil {
			copies = (*rule)(self, to.cfg.Self)
		}
		f.Sent()
		for ; copies > 0; copies-- {
			to.cfg.IO.RecvFrames.Add(1)
			rn := to.cfg.node
			switch {
			case rn == nil:
				to.cfg.Arrive(self, f.Group, f.Links, f.Msgs)
			case rn.receive(self, f.Group, f.Links, f.Msgs) && !slices.Contains(l.owed, rn):
				l.owed = append(l.owed, rn)
			}
		}
	}
	for _, rn := range l.owed {
		rn.settle()
	}
	l.owed = l.owed[:0]
}
