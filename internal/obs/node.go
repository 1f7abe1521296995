// Node-level metric assembly: the standard metric set a snapd daemon
// exposes, wired from the protocol event stream and the transport
// counters. Everything here is substrate-agnostic — it consumes the event
// kinds the façade's WithEventHook surfaces and the façade's
// TransportStats snapshots as they are, with no conversion on the way to
// a scrape.
package obs

import (
	"strconv"

	snapstab "github.com/snapstab/snapstab"
)

// NodeMetrics is the daemon's metric set over one registry.
type NodeMetrics struct {
	reg *Registry

	// events counts every observed protocol event by kind — the
	// protocol-phase counters (sends, deliveries, losses, starts,
	// decisions, CS entries, forward deliveries, ...).
	events *CounterVec

	// RequestLatency observes end-to-end request durations in seconds,
	// labelled nowhere (one histogram per daemon).
	RequestLatency *Histogram

	// Requests counts control-plane requests by operation and outcome.
	Requests *CounterVec
}

// NewNodeMetrics registers the daemon's standard metric set on a fresh
// registry. node and protocol become constant labels on the info gauge;
// stats, when non-nil, is sampled at every scrape for the transport and
// fault families.
func NewNodeMetrics(node int, protocol string, stats func() []snapstab.TransportStats) *NodeMetrics {
	reg := NewRegistry()
	m := &NodeMetrics{
		reg:            reg,
		events:         reg.NewCounter("snapstab_events_total", "Protocol events observed at this node, by event kind.", "kind"),
		RequestLatency: reg.NewHistogram("snapstab_request_duration_seconds", "End-to-end duration of control-plane requests.", DefaultLatencyBuckets),
		Requests:       reg.NewCounter("snapstab_requests_total", "Control-plane requests, by operation and outcome.", "op", "outcome"),
	}
	reg.NewGaugeFunc("snapstab_node_info", "Constant 1, carrying the node identity as labels.",
		[]string{"node", "protocol"},
		func(emit func([]string, float64)) {
			emit([]string{strconv.Itoa(node), protocol}, 1)
		})
	if stats != nil {
		registerTransport(reg, node, stats)
	}
	return m
}

// Registry returns the underlying registry (for the /metrics handler and
// for registering additional families).
func (m *NodeMetrics) Registry() *Registry { return m.reg }

// CountEvent feeds the event counters by kind name — the entry point for
// the façade's public WithEventHook, which surfaces kinds as strings.
func (m *NodeMetrics) CountEvent(kind string) {
	m.events.With(kind).Inc()
}

// transportFields maps the node-level counter names to their accessors,
// shared by the gauge collectors below.
var transportFields = []struct {
	name string
	help string
	get  func(snapstab.TransportStats) int64
}{
	{"snapstab_transport_sends_total", "Messages handed to the network by this node.", func(s snapstab.TransportStats) int64 { return s.Sends }},
	{"snapstab_transport_recvs_total", "Messages received into this node's mailbox layer.", func(s snapstab.TransportStats) int64 { return s.Recvs }},
	{"snapstab_transport_retransmits_total", "Repeats of a message already on the wire once, sent again when its link's repeat deadline passed (1 ms after it left new, then every 2 ms) or the window that refused the repeat reopened; refused repeats count as send drops, and a refused message that first leaves at the reopening is not a repeat.", func(s snapstab.TransportStats) int64 { return s.Retransmits }},
	{"snapstab_transport_send_drops_total", "Messages lost at the sender (full link windows, dead connections, full queues, failed writes).", func(s snapstab.TransportStats) int64 { return s.SendDrops }},
	{"snapstab_transport_mailbox_drops_total", "Messages dropped at a full receive mailbox (lose-on-full).", func(s snapstab.TransportStats) int64 { return s.MailboxDrops }},
	{"snapstab_transport_redials_total", "Connections re-established after a loss (TCP lifecycle).", func(s snapstab.TransportStats) int64 { return s.Redials }},
	{"snapstab_transport_send_datagrams_total", "Datagrams (UDP) or wire frames (TCP) written by this node; messages batch into them.", func(s snapstab.TransportStats) int64 { return s.SendDatagrams }},
	{"snapstab_transport_recv_datagrams_total", "Datagrams (UDP) or wire frames (TCP) read by this node.", func(s snapstab.TransportStats) int64 { return s.RecvDatagrams }},
	{"snapstab_transport_send_syscalls_total", "Socket write system calls; sendmmsg and vectored writes keep this below the datagram count.", func(s snapstab.TransportStats) int64 { return s.SendSyscalls }},
	{"snapstab_transport_recv_syscalls_total", "Socket read system calls; recvmmsg and buffered reads keep this below the datagram count.", func(s snapstab.TransportStats) int64 { return s.RecvSyscalls }},
	{"snapstab_transport_echo_frames_total", "Control frames carrying only acknowledgments that found no data to ride on.", func(s snapstab.TransportStats) int64 { return s.EchoFrames }},
	{"snapstab_transport_probe_frames_total", "Control frames probing a peer from a shut link window.", func(s snapstab.TransportStats) int64 { return s.ProbeFrames }},
	{"snapstab_transport_capacity", "Channel-capacity bound c enforced on every directed link.", func(s snapstab.TransportStats) int64 { return int64(s.Capacity) }},
}

// linkFields maps the per-directed-link families, labelled by peer, to
// their accessors.
var linkFields = []struct {
	name string
	help string
	get  func(snapstab.LinkStats) int64
}{
	{"snapstab_link_sent_total", "Messages sent toward each peer over this node's links.", func(l snapstab.LinkStats) int64 { return l.Sent }},
	{"snapstab_link_received_total", "Messages received from each peer over this node's links.", func(l snapstab.LinkStats) int64 { return l.Received }},
	{"snapstab_link_dropped_total", "Messages lost per link at this node, either direction.", func(l snapstab.LinkStats) int64 { return l.Dropped }},
	{"snapstab_link_in_flight", "Messages sent toward each peer and not yet reported consumed (fullest link window).", func(l snapstab.LinkStats) int64 { return int64(l.InFlight) }},
	{"snapstab_link_peak_in_flight", "Largest in-flight count each peer's link windows ever reached; never above snapstab_transport_capacity.", func(l snapstab.LinkStats) int64 { return int64(l.PeakInFlight) }},
}

// faultFields maps the injected-fault counters by fault type.
var faultFields = []struct {
	typ string
	get func(snapstab.FaultStats) int64
}{
	{"drop", func(f snapstab.FaultStats) int64 { return f.Drops }},
	{"duplicate", func(f snapstab.FaultStats) int64 { return f.Duplicates }},
	{"reorder", func(f snapstab.FaultStats) int64 { return f.Reorders }},
	{"delay", func(f snapstab.FaultStats) int64 { return f.Delays }},
	{"corrupt", func(f snapstab.FaultStats) int64 { return f.Corrupts }},
	{"partition_drop", func(f snapstab.FaultStats) int64 { return f.PartitionDrops }},
	{"crash_drop", func(f snapstab.FaultStats) int64 { return f.CrashDrops }},
}

// registerTransport wires the scrape-time transport families: node-level
// totals, per-directed-link throughput, and injected-fault counters. The
// families render as gauges sampled from the live transport counters —
// monotone in practice, but a daemon restart resets them, which gauge
// semantics state honestly.
func registerTransport(reg *Registry, node int, stats func() []snapstab.TransportStats) {
	// self returns this node's snapshot; on a Host substrate the slice
	// has zero entries for remote processes and only index node is real.
	self := func() snapstab.TransportStats {
		all := stats()
		if node < 0 || node >= len(all) {
			return snapstab.TransportStats{}
		}
		return all[node]
	}
	for _, tf := range transportFields {
		tf := tf
		reg.NewGaugeFunc(tf.name, tf.help, nil, func(emit func([]string, float64)) {
			emit(nil, float64(tf.get(self())))
		})
	}
	for _, lf := range linkFields {
		lf := lf
		reg.NewGaugeFunc(lf.name, lf.help, []string{"peer"}, func(emit func([]string, float64)) {
			for _, l := range self().Links {
				emit([]string{strconv.Itoa(int(l.Peer))}, float64(lf.get(l)))
			}
		})
	}
	// Derived batching-efficiency gauges: cumulative ratios over the
	// whole process lifetime, zero until the first write/read.
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	reg.NewGaugeFunc("snapstab_transport_send_batch_occupancy", "Messages per outbound datagram/frame (batching efficiency).",
		nil, func(emit func([]string, float64)) {
			s := self()
			emit(nil, ratio(s.Sends, s.SendDatagrams))
		})
	reg.NewGaugeFunc("snapstab_transport_sends_per_syscall", "Messages moved per socket write system call (syscall amortization).",
		nil, func(emit func([]string, float64)) {
			s := self()
			emit(nil, ratio(s.Sends, s.SendSyscalls))
		})
	reg.NewGaugeFunc("snapstab_transport_recvs_per_syscall", "Messages accepted per socket read system call (syscall amortization).",
		nil, func(emit func([]string, float64)) {
			s := self()
			emit(nil, ratio(s.Recvs, s.RecvSyscalls))
		})
	reg.NewGaugeFunc("snapstab_faults_injected_total", "Faults injected at this node's mailbox boundary by the fault plan, by type.",
		[]string{"type"}, func(emit func([]string, float64)) {
			f := self().Faults
			for _, ff := range faultFields {
				emit([]string{ff.typ}, float64(ff.get(f)))
			}
		})
}
