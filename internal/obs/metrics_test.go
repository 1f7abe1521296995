package obs

import (
	"strings"
	"testing"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/core"
)

// TestRenderExpositionFormat pins the exposition text for each family
// type: HELP/TYPE headers, label escaping, histogram cumulative buckets.
func TestRenderExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_events_total", "Events by kind.", "kind")
	c.With("send").Add(3)
	c.With(`we"ird`).Inc()
	reg.NewGaugeFunc("test_up", "Always one.", nil, func(emit func([]string, float64)) {
		emit(nil, 1)
	})
	h := reg.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	got := reg.Render()
	for _, want := range []string{
		"# HELP test_events_total Events by kind.\n# TYPE test_events_total counter\n",
		`test_events_total{kind="send"} 3`,
		`test_events_total{kind="we\"ird"} 1`,
		"# TYPE test_up gauge\ntest_up 1\n",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.55",
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}

// TestRegistryRejectsBadNames pins the registration-time panics.
func TestRegistryRejectsBadNames(t *testing.T) {
	reg := NewRegistry()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("bad metric name", func() { reg.NewCounter("1bad", "x") })
	mustPanic("bad label name", func() { reg.NewCounter("ok_total", "x", "bad-label") })
	reg.NewCounter("dup_total", "x")
	mustPanic("duplicate", func() { reg.NewCounter("dup_total", "x") })
	v := reg.NewCounter("labelled_total", "x", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

// TestNodeMetricsEndToEnd wires the daemon metric set from a synthetic
// event stream and transport snapshot and checks the scrape contains the
// acceptance-critical series: nonzero per-link throughput and a nonzero
// latency histogram.
func TestNodeMetricsEndToEnd(t *testing.T) {
	stats := []snapstab.TransportStats{
		{},
		{
			Addr: "127.0.0.1:9", Sends: 10, Recvs: 8, Redials: 1,
			SendDatagrams: 5, RecvSyscalls: 4,
			EchoFrames: 2, ProbeFrames: 1, Capacity: 2,
			Links: []snapstab.LinkStats{{Peer: 0, Sent: 6, Received: 5, InFlight: 1, PeakInFlight: 2},
				{Peer: 2, Sent: 4, Received: 3, Dropped: 1}},
			Faults: snapstab.FaultStats{Drops: 2},
		},
		{},
	}
	m := NewNodeMetrics(1, "pif", func() []snapstab.TransportStats { return stats })
	m.CountEvent(core.EvSend.String())
	m.CountEvent(core.EvDecide.String())
	m.CountEvent(core.EvDecide.String())
	m.RequestLatency.Observe(0.01)
	m.Requests.With("broadcast", "ok").Inc()

	got := m.Registry().Render()
	for _, want := range []string{
		`snapstab_node_info{node="1",protocol="pif"} 1`,
		`snapstab_events_total{kind="send"} 1`,
		`snapstab_events_total{kind="decide"} 2`,
		"snapstab_transport_sends_total 10",
		"snapstab_transport_recvs_total 8",
		"snapstab_transport_redials_total 1",
		"snapstab_transport_send_datagrams_total 5",
		"snapstab_transport_send_batch_occupancy 2",
		"snapstab_transport_recvs_per_syscall 2",
		"snapstab_transport_echo_frames_total 2",
		"snapstab_transport_probe_frames_total 1",
		"snapstab_transport_capacity 2",
		`snapstab_faults_injected_total{type="drop"} 2`,
		`snapstab_requests_total{op="broadcast",outcome="ok"} 1`,
		`snapstab_request_duration_seconds_bucket{le="0.016"} 1`,
		"snapstab_request_duration_seconds_count 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape missing %q:\n%s", want, got)
		}
	}
	// The five per-link families, in registration order, one series per
	// link and peer.
	links := `# HELP snapstab_link_sent_total Messages sent toward each peer over this node's links.
# TYPE snapstab_link_sent_total gauge
snapstab_link_sent_total{peer="0"} 6
snapstab_link_sent_total{peer="2"} 4
# HELP snapstab_link_received_total Messages received from each peer over this node's links.
# TYPE snapstab_link_received_total gauge
snapstab_link_received_total{peer="0"} 5
snapstab_link_received_total{peer="2"} 3
# HELP snapstab_link_dropped_total Messages lost per link at this node, either direction.
# TYPE snapstab_link_dropped_total gauge
snapstab_link_dropped_total{peer="0"} 0
snapstab_link_dropped_total{peer="2"} 1
# HELP snapstab_link_in_flight Messages sent toward each peer and not yet reported consumed (fullest link window).
# TYPE snapstab_link_in_flight gauge
snapstab_link_in_flight{peer="0"} 1
snapstab_link_in_flight{peer="2"} 0
# HELP snapstab_link_peak_in_flight Largest in-flight count each peer's link windows ever reached; never above snapstab_transport_capacity.
# TYPE snapstab_link_peak_in_flight gauge
snapstab_link_peak_in_flight{peer="0"} 2
snapstab_link_peak_in_flight{peer="2"} 0
`
	if !strings.Contains(got, links) {
		t.Errorf("scrape's per-link families differ, want:\n%s\ngot:\n%s", links, got)
	}
}
