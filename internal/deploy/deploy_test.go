package deploy

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// reservePorts grabs k distinct loopback TCP ports by binding and
// releasing them. The window between release and reuse is racy in
// principle; in practice the kernel does not rebind a just-released
// ephemeral port before the daemons claim it.
func reservePorts(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	lns := make([]net.Listener, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startFleet builds and serves one daemon per fleet process from a base
// config, returning the daemons and their control clients. Daemons are
// closed at test cleanup.
func startFleet(t *testing.T, base Config) ([]*Daemon, []*Client) {
	t.Helper()
	n := len(base.Peers)
	daemons := make([]*Daemon, n)
	clients := make([]*Client, n)
	controls := reservePorts(t, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Node = i
		cfg.Listen = base.Peers[i]
		cfg.Control = controls[i]
		d, err := New(cfg, nil)
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		daemons[i] = d
		t.Cleanup(func() { d.Close() })
		go d.Serve()
		clients[i] = NewClient(d.ControlAddr())
	}
	return daemons, clients
}

// TestFleetTypedBroadcastWithMetrics is the acceptance scenario in
// miniature: a 3-daemon typed fleet from a corrupted initial
// configuration completes a JSON broadcast submitted through the control
// API, and every daemon's scrape shows nonzero per-link throughput and a
// live latency histogram.
func TestFleetTypedBroadcastWithMetrics(t *testing.T) {
	base := Config{
		Protocol: "typed",
		Peers:    reservePorts(t, 3),
		Seed:     11,
		Corrupt:  true,
	}
	_, clients := startFleet(t, base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	doc := `{"k":"v","n":42}`
	var lines []string
	last, err := clients[0].Request(ctx, RequestBody{
		Op:     "broadcast",
		Params: json.RawMessage(fmt.Sprintf(`{"value":%s}`, doc)),
	}, func(l StreamLine) { lines = append(lines, l.Event) })
	if err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if len(lines) < 2 || lines[0] != "accepted" || last.Event != "done" {
		t.Fatalf("stream events = %v, want accepted...done", lines)
	}
	var result struct {
		Feedbacks []struct {
			From  int             `json:"from"`
			Value json.RawMessage `json:"value"`
			Error string          `json:"error"`
		} `json:"feedbacks"`
	}
	if err := json.Unmarshal(last.Result, &result); err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(result.Feedbacks) != 2 {
		t.Fatalf("%d feedbacks, want 2", len(result.Feedbacks))
	}
	for _, f := range result.Feedbacks {
		if f.Error != "" {
			t.Fatalf("feedback from %d errored: %s", f.From, f.Error)
		}
		if string(f.Value) != doc {
			t.Fatalf("feedback from %d = %s, want %s", f.From, f.Value, doc)
		}
	}

	// Every daemon: status reachable, then the scrape must show nonzero
	// per-link throughput and a live request-latency histogram.
	for i, c := range clients {
		st, err := c.Status(ctx)
		if err != nil {
			t.Fatalf("status %d: %v", i, err)
		}
		if st.Node != i || st.Fleet != 3 || st.Stats.Sends == 0 {
			t.Fatalf("status %d: %+v", i, st)
		}
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics %d: %v", i, err)
		}
		if !strings.Contains(text, `snapstab_link_sent_total{peer=`) {
			t.Fatalf("node %d scrape has no per-link throughput:\n%s", i, text)
		}
		if strings.Contains(text, "snapstab_request_duration_seconds_count 0\n") {
			t.Fatalf("node %d scrape has an empty latency histogram", i)
		}
		for _, want := range []string{
			fmt.Sprintf(`snapstab_node_info{node="%d",protocol="typed"} 1`, i),
			`snapstab_events_total{kind="send"}`,
			"snapstab_transport_sends_total",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("node %d scrape missing %q", i, want)
			}
		}
		// The frame counters reach the scrape too: a node that sent
		// messages wrote frames, and the derived ratio is live.
		for _, name := range []string{"snapstab_transport_send_datagrams_total", "snapstab_transport_send_batch_occupancy"} {
			if v := sample(text, name); v <= 0 {
				t.Fatalf("node %d scrape: %s = %v after a broadcast, want > 0", i, name, v)
			}
		}
	}
}

// sample returns the value of the unlabelled series name in a scrape, or
// -1 if it is absent.
func sample(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				return v
			}
		}
	}
	return -1
}

// TestFleetForwardOnTree drives the tree-forwarding protocol across
// daemons: node 0 forwards a document to node 2 over the default line,
// and node 2's daemon reports the delivery.
func TestFleetForwardOnTree(t *testing.T) {
	base := Config{
		Protocol: "forward",
		Peers:    reservePorts(t, 3),
		Seed:     5,
		Corrupt:  true,
	}
	_, clients := startFleet(t, base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	last, err := clients[0].Request(ctx, RequestBody{
		Op:     "forward",
		Params: json.RawMessage(`{"dst":2,"value":"fleet-item"}`),
	}, nil)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	if last.Event != "done" {
		t.Fatalf("terminal event %q", last.Event)
	}
	// The send request completing means the item was acknowledged hop by
	// hop; the destination daemon must now list it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		last, err = clients[2].Request(ctx, RequestBody{Op: "deliveries"}, nil)
		if err != nil {
			t.Fatalf("deliveries: %v", err)
		}
		if strings.Contains(string(last.Result), `"fleet-item"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 2 never delivered the item: %s", last.Result)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFleetSurvivesDaemonRestart kills one non-initiator daemon,
// restarts it with the same config, and requires a broadcast submitted
// afterwards to complete — the transport redials the restarted peer and
// the protocol absorbs the crash as message loss.
func TestFleetSurvivesDaemonRestart(t *testing.T) {
	base := Config{
		Protocol: "pif",
		Peers:    reservePorts(t, 3),
		Seed:     7,
	}
	daemons, clients := startFleet(t, base)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := clients[0].Request(ctx, RequestBody{
		Op: "broadcast", Params: json.RawMessage(`{"tag":"before","num":1}`),
	}, nil); err != nil {
		t.Fatalf("broadcast before restart: %v", err)
	}

	// Kill node 1 and restart it on the same addresses.
	if err := daemons[1].Close(); err != nil {
		t.Fatalf("close daemon 1: %v", err)
	}
	cfg := base
	cfg.Node = 1
	cfg.Listen = base.Peers[1]
	cfg.Control = daemons[1].ControlAddr()
	restarted, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("restart daemon 1: %v", err)
	}
	t.Cleanup(func() { restarted.Close() })
	go restarted.Serve()

	last, err := clients[0].Request(ctx, RequestBody{
		Op: "broadcast", Params: json.RawMessage(`{"tag":"after","num":2}`), TimeoutMS: 45_000,
	}, nil)
	if err != nil {
		t.Fatalf("broadcast after restart: %v", err)
	}
	var result struct {
		Feedbacks []struct {
			From int   `json:"from"`
			Num  int64 `json:"num"`
		} `json:"feedbacks"`
	}
	if err := json.Unmarshal(last.Result, &result); err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(result.Feedbacks) != 2 {
		t.Fatalf("%d feedbacks after restart, want 2", len(result.Feedbacks))
	}
	for _, f := range result.Feedbacks {
		if f.Num != 2*1000+int64(f.From) {
			t.Fatalf("feedback %+v not derived from the post-restart broadcast", f)
		}
	}

	// The initiator's transport must have redialed the restarted peer.
	st, err := clients[0].Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Stats.Redials == 0 {
		t.Fatalf("no redials recorded at node 0 after a peer restart: %+v", st.Stats)
	}
}

// TestConfigValidation pins the config error paths.
func TestConfigValidation(t *testing.T) {
	good := Config{
		Node: 0, Protocol: "pif",
		Listen: "127.0.0.1:1", Control: "127.0.0.1:2",
		Peers: []string{"127.0.0.1:1", "127.0.0.1:3"},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"short fleet":  func(c *Config) { c.Peers = c.Peers[:1] },
		"node range":   func(c *Config) { c.Node = 2 },
		"bad protocol": func(c *Config) { c.Protocol = "paxos" },
		"no listen":    func(c *Config) { c.Listen = "" },
		"no control":   func(c *Config) { c.Control = "" },
		"unwired peer": func(c *Config) { c.Peers = []string{"127.0.0.1:1", ""} },
	} {
		cfg := good
		cfg.Peers = append([]string(nil), good.Peers...)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRetiredBatchKeyParses: a config written when snapd had a "batch"
// key still loads, and the key is ignored.
func TestRetiredBatchKeyParses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.json")
	raw := `{"node": 0, "protocol": "pif", "listen": "127.0.0.1:1", "control": "127.0.0.1:2",
		"peers": ["127.0.0.1:1", "127.0.0.1:3"], "batch": 8}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("config with the retired batch key rejected: %v", err)
	}
}

// TestFaultConfigRoundTrip pins the JSON fault-plan shape onto the
// façade plan, link overrides included, and the bytes fleetgen writes
// for it.
func TestFaultConfigRoundTrip(t *testing.T) {
	raw := `{
		"seed": 9,
		"default": {"drop_rate": 0.1, "delay_rate": 0.05, "delay_ticks": 20},
		"links": [{"from": 0, "to": 1, "corrupt_rate": 0.5}],
		"crashes": [{"Proc": 1, "From": 0, "Until": 100}],
		"unit_ms": 2
	}`
	var fc FaultConfig
	if err := json.Unmarshal([]byte(raw), &fc); err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan := fc.Plan()
	if plan.Seed != 9 || plan.Default.DropRate != 0.1 || plan.Default.DelayTicks != 20 {
		t.Fatalf("default policy lost: %+v", plan)
	}
	if plan.Unit != 2*time.Millisecond {
		t.Fatalf("unit = %v", plan.Unit)
	}
	lf, ok := plan.Links[struct{ From, To int }{0, 1}]
	_ = lf
	_ = ok
	if got := plan.Links; len(got) != 1 {
		t.Fatalf("links: %+v", got)
	}
	for sel, f := range plan.Links {
		if sel.From != 0 || sel.To != 1 || f.CorruptRate != 0.5 {
			t.Fatalf("override lost: %+v -> %+v", sel, f)
		}
	}
	if len(plan.Crashes) != 1 || plan.Crashes[0].Until != 100 {
		t.Fatalf("crashes lost: %+v", plan.Crashes)
	}
	for _, tc := range []struct {
		fc   FaultConfig
		want string
	}{
		{fc, `{"seed":9,"default":{"drop_rate":0.1,"delay_rate":0.05,"delay_ticks":20},"links":[{"from":0,"to":1,"corrupt_rate":0.5}],"crashes":[{"Proc":1,"From":0,"Until":100}],"unit_ms":2}`},
		{FaultConfig{}, `{"default":{}}`},
	} {
		if got, err := json.Marshal(tc.fc); err != nil || string(got) != tc.want {
			t.Fatalf("config written as %s (%v), want %s", got, err, tc.want)
		}
	}
}
