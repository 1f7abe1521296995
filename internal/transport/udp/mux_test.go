package udp

import (
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/wire"
)

// pifStacks builds one PIF stack per process for mux tests.
func pifStacks(n int) ([]core.Stack, []*pif.PIF) {
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		self := core.ProcID(i)
		machines[i] = pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(DefaultCapacity))
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

func runBroadcast(t *testing.T, c *MuxCluster, machines []*pif.PIF, token core.Payload) {
	t.Helper()
	c.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	ok := waitFor(t, 30*time.Second, func() bool {
		var done bool
		c.Do(0, func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatalf("broadcast %v over the mux did not complete", token)
	}
}

// TestMuxHostsIndependentClusters runs two PIF clusters over one socket
// pair per process and checks both complete with their own tokens.
func TestMuxHostsIndependentClusters(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 3
	m, err := NewMux(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	stacksA, machA := pifStacks(n)
	stacksB, machB := pifStacks(n)
	ca, err := m.Attach(stacksA)
	if err != nil {
		t.Fatal(err)
	}
	checkWindows(t, ca)
	cb, err := m.Attach(stacksB)
	if err != nil {
		t.Fatal(err)
	}
	checkWindows(t, cb)
	if ca.Group() == cb.Group() || ca.Group() == 0 {
		t.Fatalf("group ids %d and %d must be distinct and nonzero", ca.Group(), cb.Group())
	}
	runBroadcast(t, ca, machA, core.Payload{Tag: "a", Num: 1})
	runBroadcast(t, cb, machB, core.Payload{Tag: "b", Num: 2})

	// The clusters shared sockets: each cluster counts its own messages,
	// and both rode the same datagram stream.
	sa, sb := ca.NodeStats(), cb.NodeStats()
	if sa[0].Sends == 0 || sb[0].Sends == 0 {
		t.Fatalf("per-cluster Sends: a=%d b=%d, want both > 0", sa[0].Sends, sb[0].Sends)
	}
}

// TestMuxIsolation is the corruption-crossing test: cluster A runs
// under an aggressive corruption/drop plan while cluster B runs clean
// on the same sockets. B must complete untouched — no injected faults,
// no foreign deliveries — and hand-built garbage aimed at A's group id
// (or at no group at all) must never surface in B.
func TestMuxIsolation(t *testing.T) {
	// Not parallel: shares the loopback path (see above).
	const n = 3
	m, err := NewMux(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	plan := &core.FaultPlan{
		Seed: 11,
		Default: core.LinkFaults{
			DropRate:    0.20,
			CorruptRate: 0.20,
			DupRate:     0.10,
		},
	}
	stacksA, machA := pifStacks(n)
	stacksB, machB := pifStacks(n)
	ca, err := m.Attach(stacksA, WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	checkWindows(t, ca)
	cb, err := m.Attach(stacksB)
	if err != nil {
		t.Fatal(err)
	}
	checkWindows(t, cb)

	// Garbage pressure: corrupt link frames for A's group, an unknown
	// group, and raw noise, all fired at node 0 from node 1's address —
	// i.e. from a known peer, past the sender check.
	garbage := core.Message{Instance: "pif", Kind: "PIF"}
	corrupt := linkFrame(t, ca.Group(), wire.LinkHeader{Instance: "pif", Seq: 1}, garbage)
	corrupt[len(corrupt)-1] ^= 0xFF
	stray := linkFrame(t, 9999, wire.LinkHeader{Instance: "pif", Seq: 1}, garbage)
	noise := [][]byte{corrupt, stray, {0x53, 0x4e, 4, 0xFF}, {1, 2, 3}}
	target := mustUDPAddr(t, m.nodes[0].Addr())
	for i := 0; i < 20; i++ {
		for _, d := range noise {
			// Sent from node 1's own socket so the sender table accepts the
			// source address; the frame contents must still be quarantined.
			if _, err := m.nodes[1].conn.WriteToUDP(d, target); err != nil {
				t.Fatal(err)
			}
		}
	}

	runBroadcast(t, ca, machA, core.Payload{Tag: "a", Num: 5})
	runBroadcast(t, cb, machB, core.Payload{Tag: "b", Num: 6})

	var faultsA, faultsB int64
	for _, s := range ca.NodeStats() {
		faultsA += s.Faults.Total()
	}
	for _, s := range cb.NodeStats() {
		faultsB += s.Faults.Total()
	}
	if faultsA == 0 {
		t.Fatal("cluster A's fault plan injected nothing")
	}
	if faultsB != 0 {
		t.Fatalf("clean cluster B saw %d injected faults: fault plane leaked across groups", faultsB)
	}
}

// TestMuxClusterCloseDetaches: closing one cluster leaves its siblings
// running on the shared sockets.
func TestMuxClusterCloseDetaches(t *testing.T) {
	// Not parallel: shares the loopback path (see above).
	const n = 2
	m, err := NewMux(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	stacksA, machA := pifStacks(n)
	stacksB, machB := pifStacks(n)
	ca, err := m.Attach(stacksA)
	if err != nil {
		t.Fatal(err)
	}
	checkWindows(t, ca)
	cb, err := m.Attach(stacksB)
	if err != nil {
		t.Fatal(err)
	}
	checkWindows(t, cb)
	runBroadcast(t, ca, machA, core.Payload{Tag: "a", Num: 1})
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	runBroadcast(t, cb, machB, core.Payload{Tag: "b", Num: 2})
}

// TestMuxRejectsNodeLevelAttachOptions: socket-level knobs are fixed at
// NewMux; passing them per cluster must fail loudly.
func TestMuxRejectsNodeLevelAttachOptions(t *testing.T) {
	t.Parallel()
	m, err := NewMux(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	stacks, _ := pifStacks(2)
	if _, err := m.Attach(stacks, WithBatch(4)); err == nil {
		t.Fatal("WithBatch accepted per attached cluster")
	}
	if _, err := m.Attach(stacks, WithCapacity(4)); err == nil {
		t.Fatal("WithCapacity accepted per attached cluster")
	}
}
