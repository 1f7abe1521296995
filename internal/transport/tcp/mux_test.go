package tcp

import (
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
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

func muxBroadcast(t *testing.T, c *MuxCluster, machines []*pif.PIF, token core.Payload) {
	t.Helper()
	invoked := waitFor(t, 20*time.Second, func() bool {
		var ok bool
		c.Do(0, func(env core.Env) { ok = machines[0].Invoke(env, token) })
		return ok
	})
	if !invoked {
		t.Fatal("Invoke never accepted")
	}
	ok := waitFor(t, 30*time.Second, func() bool {
		var done bool
		c.Do(0, func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatalf("broadcast %v over the TCP mux did not complete", token)
	}
}

// TestTCPMuxHostsIndependentClusters runs two PIF clusters over one
// connection mesh and checks both complete with their own tokens: group
// routing works over v3 count=1 frames on a shared stream.
func TestTCPMuxHostsIndependentClusters(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path.
	const n = 3
	m, err := NewMux(n, WithDialBackoff(time.Millisecond, 50*time.Millisecond))
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
	muxBroadcast(t, ca, machA, core.Payload{Tag: "a", Num: 1})
	muxBroadcast(t, cb, machB, core.Payload{Tag: "b", Num: 2})

	sa, sb := ca.NodeStats(), cb.NodeStats()
	if sa[0].Sends == 0 || sb[0].Sends == 0 {
		t.Fatalf("per-cluster Sends: a=%d b=%d, want both > 0", sa[0].Sends, sb[0].Sends)
	}
	// The shared stream moved both clusters' frames; the socket-level
	// frame counter is common to both views.
	if sa[0].SendFrames == 0 || sa[0].SendFrames != sb[0].SendFrames {
		t.Fatalf("socket-level SendFrames differ across views: a=%d b=%d", sa[0].SendFrames, sb[0].SendFrames)
	}
}

// TestTCPMuxFaultIsolation: cluster A runs under an aggressive fault
// plan while cluster B runs clean on the same connections; B must see
// zero injected faults.
func TestTCPMuxFaultIsolation(t *testing.T) {
	// Not parallel: shares the loopback path.
	const n = 2
	m, err := NewMux(n, WithDialBackoff(time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	plan := &core.FaultPlan{
		Seed: 23,
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
	muxBroadcast(t, ca, machA, core.Payload{Tag: "a", Num: 5})
	muxBroadcast(t, cb, machB, core.Payload{Tag: "b", Num: 6})

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

// TestTCPMuxClusterCloseDetaches: closing one cluster leaves its
// siblings running on the shared connections.
func TestTCPMuxClusterCloseDetaches(t *testing.T) {
	// Not parallel: shares the loopback path.
	const n = 2
	m, err := NewMux(n, WithDialBackoff(time.Millisecond, 50*time.Millisecond))
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
	muxBroadcast(t, ca, machA, core.Payload{Tag: "a", Num: 1})
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	muxBroadcast(t, cb, machB, core.Payload{Tag: "b", Num: 2})
}

// TestTCPMuxRejectsNodeLevelAttachOptions: connection-level knobs are
// fixed at NewMux; passing them per cluster must fail loudly.
func TestTCPMuxRejectsNodeLevelAttachOptions(t *testing.T) {
	t.Parallel()
	m, err := NewMux(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	stacks, _ := pifStacks(2)
	if _, err := m.Attach(stacks, WithCapacity(4)); err == nil {
		t.Fatal("WithCapacity accepted per attached cluster")
	}
}
