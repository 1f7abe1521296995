package check

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/window"
)

// Window analysis: the link window the engine runs on runtime, udp and
// tcp (internal/window's Link) driven exhaustively. One endpoint A sends
// data to a peer B over a bounded FIFO that may lose or duplicate any
// frame; B's pipeline may consume its messages in any order (a fault
// plane's holdback); echoes and probe answers return over a second such
// FIFO; and B may restart once, forgetting everything. A's refused send
// ships the link's header, which probes by the window's own rule; B
// answers through the window's answer rule in a drain, as the engine
// does, and at its tick. A receives no data, so its own tick owes
// nothing and is not modelled. The real state machine runs inside the
// exploration, exactly as the PIF machines do in the other analyses.

// Model bounds: frames per channel, and the number of messages A may
// admit over a run beyond its window (which keeps the sequence space,
// and so the state space, finite).
const (
	winChan  = 2
	winExtra = 2
)

// wframe is one frame in a channel: its link header, whether it
// carries a data message, and whether it is the channel's own duplicate
// of one (which the capacity bound does not count).
type wframe struct {
	h    window.Header
	data bool
	dup  bool
}

// wmsg is one message in B's pipeline.
type wmsg struct {
	seq uint64
	dup bool
}

// wconf is one configuration. It is comparable and used as a map key.
type wconf struct {
	a, b      window.Link
	ab, ba    [winChan]wframe
	nab, nba  uint8
	pipe      [winChan + 1]wmsg
	npipe     uint8
	sent      uint8
	restarted bool
}

// The transitions. The first winGood are the cooperative ones: what the
// link does when the network and the peer behave. Liveness is judged on
// those alone.
const (
	wSend   = iota // A tries to send one message; a refusal ships the header
	wDrainB        // B's drain answers what its headers asked for
	wTickB
	wDeliverAB
	wDeliverBA
	wConsume // + i: B consumes pipeline entry i
	winGood  = wConsume + winChan + 1
)

const (
	wLoseAB = winGood + iota
	wLoseBA
	wDupAB
	wDupBA
	wRestartB
	winOps
)

func pushFrame(ch *[winChan]wframe, n *uint8, f wframe) {
	if *n < winChan {
		ch[*n] = f
		*n++
	} // else the frame is lost to a full channel
}

func popFrame(ch *[winChan]wframe, n *uint8) wframe {
	f := ch[0]
	copy(ch[:], ch[1:*n])
	*n--
	ch[*n] = wframe{}
	return f
}

func dupHead(ch *[winChan]wframe, n *uint8) bool {
	if *n == 0 || *n == winChan {
		return false
	}
	copy(ch[2:], ch[1:*n])
	ch[1] = ch[0]
	ch[1].dup = true
	*n++
	return true
}

// apply performs op on s and reports whether it was enabled.
func (s *wconf) apply(op, c int) bool {
	if op >= wConsume && op < winGood {
		i := uint8(op - wConsume)
		if i >= s.npipe {
			return false
		}
		copy(s.pipe[i:], s.pipe[i+1:s.npipe])
		s.npipe--
		s.pipe[s.npipe] = wmsg{}
		s.b.Occupy(-1)
		return true
	}
	switch op {
	case wSend:
		if s.a.InFlight() < c && int(s.sent) == c+winExtra {
			return false // horizon reached: no further data in this run
		}
		admitted := s.a.Admit()
		s.sent += uint8(b2u(admitted))
		pushFrame(&s.ab, &s.nab, wframe{h: s.a.Stamp(), data: admitted})
	case wDrainB:
		if header, _ := s.b.Answer(); header {
			pushFrame(&s.ba, &s.nba, wframe{h: s.b.Stamp()})
		}
	case wTickB:
		if s.b.Tick() {
			pushFrame(&s.ba, &s.nba, wframe{h: s.b.Stamp()})
		}
	case wDeliverAB:
		if s.nab == 0 {
			return false
		}
		f := popFrame(&s.ab, &s.nab)
		n := 0
		if f.data {
			if int(s.npipe) == len(s.pipe) {
				return false // keep the model's pipeline bounded
			}
			n = 1
			s.pipe[s.npipe] = wmsg{seq: f.h.Seq, dup: f.dup}
			s.npipe++
		}
		s.b.Arrive(f.h, n)
	case wDeliverBA:
		if s.nba == 0 {
			return false
		}
		s.a.Arrive(popFrame(&s.ba, &s.nba).h, 0)
	case wLoseAB:
		if s.nab == 0 {
			return false
		}
		popFrame(&s.ab, &s.nab)
	case wLoseBA:
		if s.nba == 0 {
			return false
		}
		popFrame(&s.ba, &s.nba)
	case wDupAB:
		return dupHead(&s.ab, &s.nab)
	case wDupBA:
		return dupHead(&s.ba, &s.nba)
	case wRestartB:
		if s.restarted {
			return false
		}
		// A fresh socket: B's state, its pipeline and whatever was queued
		// toward the old one are gone; its own old frames may still arrive.
		s.restarted = true
		s.b = window.NewLink(c, 1)
		s.ab, s.nab = [winChan]wframe{}, 0
		s.pipe, s.npipe = [winChan + 1]wmsg{}, 0
	}
	return true
}

// unsafe describes how s breaks the capacity bound, or returns "".
func (s *wconf) unsafe(c int) string {
	if s.a.InFlight() > c {
		return fmt.Sprintf("sender counts %d in flight, window %d", s.a.InFlight(), c)
	}
	if s.b.Occupied() != int(s.npipe) {
		return fmt.Sprintf("receiver accounts for %d messages, pipeline holds %d", s.b.Occupied(), s.npipe)
	}
	// Distinct genuine messages between Send and consumption.
	var seqs [2*winChan + 1]uint64
	real := 0
	note := func(seq uint64, dup bool) {
		if dup {
			return
		}
		for _, have := range seqs[:real] {
			if have == seq {
				return
			}
		}
		seqs[real] = seq
		real++
	}
	for _, f := range s.ab[:s.nab] {
		if f.data {
			note(f.h.Seq, f.dup)
		}
	}
	for _, m := range s.pipe[:s.npipe] {
		note(m.seq, m.dup)
	}
	if real > s.a.InFlight() {
		return fmt.Sprintf("%d messages unconsumed but only %d slots held: a slot was released early", real, s.a.InFlight())
	}
	return ""
}

// WindowResult reports a window analysis.
type WindowResult struct {
	// States and Edges size the explored transition system.
	States, Edges int
	// Violation describes the first configuration in which more genuine
	// messages were in flight than the sender held slots for (or the
	// receiver's accounting diverged from its pipeline); "" if none.
	Violation string
	// Wedged counts reachable configurations from which no sequence of
	// cooperative steps — sends, ticks, deliveries, consumption — brings
	// the sender's window below c again. Zero means a probe/echo
	// exchange reopens the window from everywhere.
	Wedged int
	// SampleWedge renders one wedged configuration, when any exists.
	SampleWedge string
}

// Window explores every configuration reachable from two fresh
// endpoints with window c and checks the capacity bound in each, then
// checks that every one of them can reach an open window.
func Window(c int) WindowResult {
	init := wconf{a: window.NewLink(c, 1), b: window.NewLink(c, 1)}
	index := map[wconf]int32{init: 0}
	states := []wconf{init}
	type edge struct{ from, to int32 }
	var good []edge
	res := WindowResult{}
	for head := 0; head < len(states); head++ {
		if v := states[head].unsafe(c); v != "" && res.Violation == "" {
			res.Violation = fmt.Sprintf("%s in %+v", v, states[head])
		}
		for op := 0; op < winOps; op++ {
			next := states[head]
			if !next.apply(op, c) || next == states[head] {
				continue
			}
			to, ok := index[next]
			if !ok {
				to = int32(len(states))
				index[next] = to
				states = append(states, next)
			}
			res.Edges++
			if op < winGood {
				good = append(good, edge{from: int32(head), to: to})
			}
		}
	}
	res.States = len(states)

	// Reverse reachability of "window open" over the cooperative edges.
	preds := make([][]int32, len(states))
	for _, e := range good {
		preds[e.to] = append(preds[e.to], e.from)
	}
	open := make([]bool, len(states))
	var queue []int32
	for i := range states {
		if states[i].a.InFlight() < c {
			open[i] = true
			queue = append(queue, int32(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, p := range preds[queue[head]] {
			if !open[p] {
				open[p] = true
				queue = append(queue, p)
			}
		}
	}
	for i, ok := range open {
		if !ok {
			res.Wedged++
			if res.SampleWedge == "" {
				res.SampleWedge = fmt.Sprintf("%+v", states[i])
			}
		}
	}
	return res
}
