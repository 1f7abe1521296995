package snapstab

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// fwdCtx bounds a forwarding request on the concurrent substrates.
func fwdCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// checkForwardRun drives a full send matrix over an already-corrupted
// cluster and asserts the forwarding specification end to end: every
// send completes, every genuine delivery carries the right value to the
// right process, fabricated deliveries are flagged with Err, and the
// armed spec checker reports no violation.
func checkForwardRun(t *testing.T, c *ForwardingCluster[string], n int) {
	t.Helper()
	type sent struct{ src, dst int }
	want := make(map[sent]string)
	var reqs []*ForwardRequest
	for src := 0; src < n; src++ {
		dst := (src + n/2) % n
		if dst == src {
			dst = (src + 1) % n
		}
		v := fmt.Sprintf("item-%d-to-%d", src, dst)
		want[sent{src, dst}] = v
		reqs = append(reqs, c.SendAsync(src, dst, v))
	}
	for _, r := range reqs {
		if err := r.Wait(fwdCtx(t)); err != nil {
			t.Fatalf("send %s: %v", r.Key(), err)
		}
	}
	// Every genuine (Err == nil) delivery must be one of ours, at its
	// destination; fabricated items must surface with Err set.
	seen := make(map[sent]int)
	for p := 0; p < n; p++ {
		for _, d := range c.Deliveries(p) {
			if d.Err != nil {
				continue // fabricated by the initial configuration: flagged
			}
			k := sent{d.From, p}
			v, ok := want[k]
			if !ok {
				t.Errorf("process %d received unsent item %q from %d", p, d.Value, d.From)
				continue
			}
			if d.Value != v {
				t.Errorf("process %d received %q from %d, want %q", p, d.Value, d.From, v)
			}
			seen[k]++
		}
	}
	for k, v := range want {
		if seen[k] != 1 {
			t.Errorf("item %q (%d->%d) delivered %d times, want 1", v, k.src, k.dst, seen[k])
		}
	}
	if rep := c.SpecReport(); len(rep.Violations) != 0 {
		t.Fatalf("forwarding spec violated: %v", rep.Violations)
	}
}

func TestForwardingAllSubstratesAllTrees(t *testing.T) {
	t.Parallel()
	const n = 6
	topos := []struct {
		name string
		t    Topology
	}{
		{"line", Line(n)},
		{"star", Star(n)},
		{"tree", RandomTree(n, 21)},
	}
	subs := []struct {
		name string
		s    Substrate
	}{
		{"sim", Sim()},
		{"runtime", Runtime()},
		{"udp", UDP()},
	}
	for _, topo := range topos {
		for _, sub := range subs {
			topo, sub := topo, sub
			t.Run(topo.name+"/"+sub.name, func(t *testing.T) {
				t.Parallel()
				c := NewForwardingCluster(n, JSON[string](),
					WithTopology(topo.t), WithSubstrate(sub.s), WithSeed(13))
				defer c.Close()
				c.CorruptEverything(77)
				checkForwardRun(t, c, n)
			})
		}
	}
}

// TestForwardingFlakyLinks runs the corrupted cluster under heavy
// link-level chaos — drops, duplicates, adjacent reorders, in-flight
// corruption — on the deterministic substrate, where the whole run
// replays from the seed. The protocol's per-edge handshake must carry
// every item through regardless.
func TestForwardingFlakyLinks(t *testing.T) {
	t.Parallel()
	const n = 6
	for _, topo := range []struct {
		name string
		t    Topology
	}{
		{"line", Line(n)},
		{"tree", RandomTree(n, 5)},
	} {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			t.Parallel()
			c := NewForwardingCluster(n, JSON[string](),
				WithTopology(topo.t), WithSeed(3),
				WithFaults(FaultPlan{
					Seed: 19,
					Default: LinkFaults{
						DropRate:    0.10,
						DupRate:     0.10,
						ReorderRate: 0.10,
						CorruptRate: 0.05,
					},
				}))
			defer c.Close()
			c.CorruptEverything(41)
			checkForwardRun(t, c, n)
			if c.FaultStats().Total() == 0 {
				t.Fatal("fault plan injected nothing; the test exercised no chaos")
			}
		})
	}
}

// TestForwardingSplitBrain partitions the tree down the middle for a
// window, sends across the cut while it is open, and asserts the items
// still arrive after the heal — snap-stabilization treats the partition
// as one more transient fault.
func TestForwardingSplitBrain(t *testing.T) {
	t.Parallel()
	const n = 6
	c := NewForwardingCluster(n, JSON[string](),
		WithTopology(Line(n)), WithSeed(9),
		WithFaults(FaultPlan{
			Seed: 23,
			Partitions: []PartitionWindow{
				{From: 0, Until: 4000, GroupA: []int{0, 1, 2}},
			},
		}))
	defer c.Close()
	c.CorruptEverything(55)
	checkForwardRun(t, c, n)
	if c.FaultStats().PartitionDrops == 0 {
		t.Fatal("the partition window dropped nothing; the cut was never exercised")
	}
}

func TestForwardingManySeedsSim(t *testing.T) {
	t.Parallel()
	const n = 5
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			c := NewForwardingCluster(n, JSON[string](),
				WithTopology(RandomTree(n, seed)), WithSeed(seed))
			defer c.Close()
			c.CorruptEverything(seed * 31)
			checkForwardRun(t, c, n)
		})
	}
}

func TestForwardingDefaultTopologyIsLine(t *testing.T) {
	t.Parallel()
	c := NewForwardingCluster(4, JSON[int]())
	defer c.Close()
	if err := c.Send(0, 3, 42); err != nil {
		t.Fatal(err)
	}
	ds := c.Deliveries(3)
	if len(ds) != 1 || ds[0].Err != nil || ds[0].Value != 42 || ds[0].From != 0 {
		t.Fatalf("deliveries at 3 = %+v, want one genuine 42 from 0", ds)
	}
}

func TestForwardingValidation(t *testing.T) {
	t.Parallel()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: constructor did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil-codec", func() { NewForwardingCluster[int](3, nil) })
	mustPanic("non-tree", func() { NewForwardingCluster(4, JSON[int](), WithTopology(Ring(4))) })
	mustPanic("complete", func() { NewForwardingCluster(4, JSON[int](), WithTopology(Complete(4))) })
	mustPanic("wrong-n", func() { NewForwardingCluster(4, JSON[int](), WithTopology(Line(5))) })

	c := NewForwardingCluster(3, JSON[int]())
	defer c.Close()
	if err := c.Send(0, 9, 1); err == nil {
		t.Error("send to an out-of-range destination succeeded")
	}
	if err := c.Send(-1, 1, 1); err == nil {
		t.Error("send from an out-of-range source succeeded")
	}
	if err := c.Send(0, 0, 7); err != nil {
		t.Errorf("self-send failed: %v", err)
	}
	if ds := c.Deliveries(0); len(ds) != 1 || ds[0].Value != 7 {
		t.Errorf("self-send not delivered at 0: %+v", ds)
	}
}
