package core

import "fmt"

// LinkStats counts the traffic this node exchanged with one peer over a
// real network transport. A "drop" here is a message this node lost on
// that link — a failed or timed-out write on the send side, a full
// receive mailbox on the receive side — so Sent+Dropped at the sender and
// Received+Dropped at the receiver bracket the link's true delivery rate.
type LinkStats struct {
	// Peer is the other endpoint of the link.
	Peer ProcID
	// Sent counts messages handed to the network toward Peer.
	Sent int64
	// Received counts messages delivered from Peer.
	Received int64
	// Dropped counts messages lost on this link at this node: send-side
	// failures (dead connection, timed-out write, full send queue) plus
	// receive-side mailbox drops attributed to Peer.
	Dropped int64
	// InFlight is how many messages this node has sent toward Peer that
	// the peer has not yet reported consumed — the fullest of the
	// per-instance link windows — and PeakInFlight the largest value any
	// of them ever reached. The transports refuse a send that would take
	// a window past TransportStats.Capacity, so PeakInFlight above it
	// means the capacity bound was broken.
	InFlight     int
	PeakInFlight int
	// PeakOutstanding is the most messages toward Peer that were admitted
	// and not yet released by an acknowledgment at once, counted from
	// the windows' verdicts rather than their sequences: it equals
	// PeakInFlight unless a window's own arithmetic is wrong, as a
	// corrupted window state could make it.
	PeakOutstanding int
}

// TransportStats is the substrate-agnostic transport counter snapshot for
// one node. The concurrent engine fills it on all three of its links
// (Runtime's in-memory one, UDP, TCP); the simulator counts per network,
// not per node (sim.Stats), and reports the zero value. The type is the
// façade's TransportStats, so operators and the metrics layer read one
// shape regardless of the engine.
type TransportStats struct {
	// Addr is the node's bound local address: a socket address on UDP
	// and TCP, the in-memory link's index in its address space on
	// Runtime, "" on the simulator.
	Addr string
	// Sends counts messages successfully handed to the network.
	Sends int64
	// Recvs counts messages received and delivered to the mailbox layer.
	Recvs int64
	// Retransmits counts the repeats that left of a link's last message,
	// a message that was already on the wire once, each once the link's
	// repeat deadline passed (window.Out): 1 ms after the message left new,
	// then every 2 ms. Everything new leaves on arrival, so a loss-free
	// run reads zero unless an answer took longer than that. A repeat the
	// window refuses is a SendDrop only, and a refused message that first
	// leaves when the window reopens is a Send, not a retransmission.
	Retransmits int64
	// SendDrops counts messages lost at the sender — sends refused by a
	// full link window, failed writes, unencodable payloads, dead or
	// backlogged connections, and sends to a non-neighbour.
	SendDrops int64
	// MailboxDrops counts messages dropped at a full receive mailbox,
	// the transport's lose-on-full rule (reported as EvLose). Injected
	// loss — the façade's Runtime WithLossRate included — is not here
	// but in Faults.Drops.
	MailboxDrops int64
	// Redials counts transport reconnection attempts (TCP only: the
	// dial/accept lifecycle re-establishing a lost connection).
	Redials int64
	// SendDatagrams and RecvDatagrams count wire frames (datagrams on
	// UDP, length-prefixed frames on TCP), control frames included.
	// With batching one frame carries many messages, so
	// Sends/SendDatagrams is the outbound batch occupancy. The in-memory
	// link counts the frames it hands over, one message each; zero on
	// the simulator.
	SendDatagrams int64
	RecvDatagrams int64
	// SendSyscalls and RecvSyscalls count the socket system calls that
	// moved those frames (sendmmsg/recvmmsg and vectored writes make
	// them smaller than the frame counts); Sends/SendSyscalls is the
	// syscall amortization the batching path exists to maximize. Zero
	// where there is no syscall (the in-memory link, the simulator) or
	// the transport cannot observe the boundary.
	SendSyscalls int64
	RecvSyscalls int64
	// EchoFrames and ProbeFrames count the link layer's control frames:
	// acknowledgments that found no data to ride on, and probes sent at
	// a shut window. Both are included in SendDatagrams.
	EchoFrames  int64
	ProbeFrames int64
	// Capacity is the channel-capacity bound c (the façade's
	// WithCapacity) the transport enforces on every directed (peer,
	// group, instance) link; zero on the simulator, whose channels hold
	// the bound themselves.
	Capacity int
	// Links holds per-peer detail on the engine's links (Runtime, UDP,
	// TCP); nil on the simulator.
	Links []LinkStats
	// Faults counts the faults injected at this node's mailbox boundary
	// by an installed FaultPlan; zero without one.
	Faults FaultStats
}

// TransportStatser is implemented by every substrate: one entry per
// process, so callers can range over the result uniformly (the
// simulator's entries are zero-valued); use the zero Addr to tell "no
// sockets" from "no traffic yet".
type TransportStatser interface {
	TransportStats() []TransportStats
}

// FaultTotals sums the per-node injected-fault counters: Substrate's
// FaultStats on every substrate that injects per receiver.
func FaultTotals(stats []TransportStats) FaultStats {
	var agg FaultStats
	for _, s := range stats {
		agg.Add(s.Faults)
	}
	return agg
}

// CheckWindows reports the first link whose peak in-flight count, as the
// window reads it or as it counts admissions beside its arithmetic,
// exceeded the capacity its node enforces — the transports' teardown
// assertion that the channel-capacity bound held for a whole run.
func CheckWindows(stats []TransportStats) error {
	for p, s := range stats {
		for _, l := range s.Links {
			if peak := max(l.PeakInFlight, l.PeakOutstanding); peak > s.Capacity {
				return fmt.Errorf("core: link %d->%d peaked at %d messages in flight, capacity %d",
					p, l.Peer, peak, s.Capacity)
			}
		}
	}
	return nil
}
