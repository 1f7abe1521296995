package engine

import (
	"encoding/binary"
	"slices"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/wire"
)

// This file is the one framer: how messages and control headers pack
// into wire v4 link frames and when a frame's headers are stamped, for
// every link alike (DESIGN.md §13).

// defaultBatch is how many messages a frame carries at most without
// WithBatch.
const defaultBatch = 16

// frameHeadroom bounds a frame's bytes beside its headers and records:
// magic and version, and maximal uvarints for the group, the header
// count and the record count. linkHeaderBytes bounds one header beyond
// its instance name: the name's length byte, the flags, a maximal seq
// and ack.
const (
	frameHeadroom   = 3 + 3*binary.MaxVarintLen64
	linkHeaderBytes = 2 + 2*binary.MaxVarintLen64
)

// Frame is one link frame an atomic section closed, toward one peer for
// one group: a header per channel it speaks for — sequence and
// acknowledgment stamped as it closed, Count filled — and its messages
// in send order. The sockets render it with wire.AppendLinkFrame; the
// in-memory link hands the values over.
type Frame struct {
	To    core.ProcID
	Group uint64
	Links []wire.LinkHeader
	Msgs  []core.Message
	Tally

	size int // bound on the rendered frame's bytes
}

// Tally charges a frame's fate to its group. A link may keep it past
// Write and report from any goroutine, once per frame.
type Tally struct {
	g     *Group
	to    core.ProcID
	msgs  int  // messages the frame carries
	probe bool // a header probes
}

// Sent reports that the link wrote the frame.
func (t Tally) Sent() {
	g := t.g
	g.n.io.SendFrames.Add(1)
	switch {
	case t.msgs > 0:
		g.sends.Add(int64(t.msgs))
		g.peers[t.to].sent.Add(int64(t.msgs))
	case t.probe:
		g.probeFrames.Add(1)
	default:
		g.echoFrames.Add(1)
	}
}

// Lost reports that the link lost the frame. Its messages keep their
// window slots until an acknowledgment or a probe proves them gone, and
// their loss events carry the link, not the bodies, which a link need
// not keep. A lost control frame costs nothing: the next tick asks again.
func (t Tally) Lost(note string) {
	g := t.g
	g.sendDrops.Add(int64(t.msgs))
	g.peers[t.to].dropped.Add(int64(t.msgs))
	for i := 0; i < t.msgs && len(g.traffic) > 0; i++ {
		g.traffic.OnEvent(core.Event{Kind: core.EvSendLost, Proc: g.n.self, Peer: t.to, Note: note})
	}
}

// pack puts m, admitted by c's window and size bytes long as a record,
// into the frame open toward c's peer, which closes once it holds batch
// messages. Callers hold n.mu.
func (n *Node) pack(c *Chan, m core.Message, size int) {
	f, j := n.frame(c, size+binary.MaxVarintLen32)
	f.Links[j].Count++
	f.Msgs = append(f.Msgs, m)
	if len(f.Msgs) >= n.batch {
		n.close(f)
	}
}

// frame returns the frame open toward (c's group, c.Peer) and the index
// of c's header in it, with room for add more bytes. A frame that has
// not — past wire.MaxDatagram, or a new header beyond wire.MaxLinks —
// closes, and a fresh one opens. Callers hold n.mu.
func (n *Node) frame(c *Chan, add int) (*Frame, int) {
	pl := &c.g.peers[c.Peer]
	for {
		if pl.open == 0 {
			n.out = slices.Grow(n.out, 1)[:len(n.out)+1]
			f := &n.out[len(n.out)-1]
			*f = Frame{
				To: c.Peer, Group: c.g.id, Tally: Tally{g: c.g, to: c.Peer},
				Links: f.Links[:0], Msgs: f.Msgs[:0], size: frameHeadroom,
			}
			pl.open = len(n.out)
		}
		f := &n.out[pl.open-1]
		j := slices.IndexFunc(f.Links, func(h wire.LinkHeader) bool { return h.Instance == c.Instance })
		grow := add
		if j < 0 {
			grow += len(c.Instance) + linkHeaderBytes
		}
		if len(f.Links) == 0 || f.size+grow <= wire.MaxDatagram && (j >= 0 || len(f.Links) < wire.MaxLinks) {
			if j < 0 {
				j = len(f.Links)
				f.Links = append(f.Links, wire.LinkHeader{Instance: c.Instance})
			}
			f.size += grow
			return f, j
		}
		n.close(f)
	}
}

// close stamps f's headers — sequence and acknowledgment are read now, so
// a frame always carries the freshest consumption — and takes it off its
// peer's record; it leaves at the end of the section. Callers hold n.mu.
func (n *Node) close(f *Frame) {
	f.g.peers[f.To].open = 0
	f.msgs = len(f.Msgs)
	n.mbMu.Lock()
	for j := range f.Links {
		h := &f.Links[j]
		s := f.g.channel(f.To, h.Instance).end.Stamp()
		h.Seq, h.Ack, h.Probe = s.Seq, s.Ack, s.Probe
		f.probe = f.probe || s.Probe
	}
	n.mbMu.Unlock()
}

// flush ends an atomic section. If the section owes something earlier
// than the timer is set for — a send's deadline, the tick a drain, Do or
// Submit owes — the timer moves up: here, where the section's stack is
// shallow, not in Send. Then every open frame closes, and
// all of the section's frames go to the link in one Write, in the order
// they opened. The section's clock reading goes with it. Callers hold
// n.mu.
func (n *Node) flush() {
	if n.wake < n.next && n.timer != nil {
		n.next = n.wake
		n.timer.Reset(n.wake - n.clock())
	}
	n.haveNow = false
	if len(n.out) == 0 {
		return
	}
	for i := range n.out {
		if f := &n.out[i]; f.g.peers[f.To].open == i+1 {
			n.close(f)
		}
	}
	n.link.Write(n.out)
	for i := range n.out {
		clear(n.out[i].Msgs) // drop the payload references
	}
	n.out = n.out[:0]
}
