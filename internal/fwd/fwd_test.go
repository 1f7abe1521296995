package fwd

import (
	"fmt"
	"testing"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
	"github.com/snapstab/snapstab/internal/spec"
)

// testNet builds forwarding machines over topo on the deterministic
// simulator, with a spec checker and recorder attached.
func testNet(t *testing.T, topo *core.Topology, opts ...sim.Option) (*sim.Network, []*Forwarder, *spec.ForwardChecker, *core.Recorder) {
	t.Helper()
	n := topo.N()
	checker := spec.NewForwardChecker()
	rec := core.NewRecorder(100000)
	hops := topo.NextHops()
	machines := make([]*Forwarder, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		machines[i] = New("fwd", core.ProcID(i), n, topo.Neighbors(core.ProcID(i)), hops[i], Callbacks{})
		stacks[i] = core.Stack{machines[i]}
	}
	opts = append(opts, sim.WithTopology(topo), sim.WithObserver(checker), sim.WithObserver(rec))
	return sim.New(stacks, opts...), machines, checker, rec
}

// submit injects an item at src and arms its key.
func submit(net *sim.Network, m *Forwarder, checker *spec.ForwardChecker, src, dst core.ProcID, seq int64) spec.FwdKey {
	it := Item{Src: src, Dst: dst, Seq: seq, Body: []byte{byte(seq)}}
	k := spec.FwdKey{Src: src, Dst: dst, Seq: seq}
	checker.Arm(k)
	m.Submit(net.Env(src), it)
	return k
}

func TestCleanTransferAcrossLine(t *testing.T) {
	t.Parallel()
	topo := core.Line(5)
	net, machines, checker, rec := testNet(t, topo, sim.WithSeed(3))
	k := submit(net, machines[0], checker, 0, 4, SeqFloor)
	if err := net.RunUntil(func() bool { return checker.Delivered(k) }, 200000); err != nil {
		t.Fatalf("item not delivered: %v\n%s", err, rec.Dump())
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	// The item crossed each of the four edges exactly once: one
	// EvFwdDeliver at 4, none elsewhere.
	delivers := 0
	for _, e := range rec.Events() {
		if e.Kind == core.EvFwdDeliver {
			delivers++
			if e.Proc != 4 {
				t.Errorf("delivered at %d, want 4", e.Proc)
			}
		}
	}
	if delivers != 1 {
		t.Errorf("%d deliveries, want 1", delivers)
	}
}

func TestSelfDelivery(t *testing.T) {
	t.Parallel()
	topo := core.Line(3)
	net, machines, checker, _ := testNet(t, topo, sim.WithSeed(1))
	k := submit(net, machines[1], checker, 1, 1, SeqFloor)
	if !checker.Delivered(k) {
		t.Fatal("self-addressed item not delivered immediately")
	}
	_ = net
}

func TestManyItemsManyRoutes(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		topo *core.Topology
	}{
		{"line-6", core.Line(6)},
		{"star-6", core.Star(6)},
		{"tree-9", core.RandomTree(9, rng.New(rng.Mix(5, 0x54)))},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			net, machines, checker, rec := testNet(t, tc.topo, sim.WithSeed(7))
			n := tc.topo.N()
			var keys []spec.FwdKey
			seq := int64(SeqFloor)
			for src := 0; src < n; src++ {
				for d := 1; d <= 2; d++ {
					dst := core.ProcID((src + d*2) % n)
					keys = append(keys, submit(net, machines[src], checker, core.ProcID(src), dst, seq))
					seq++
				}
			}
			all := func() bool {
				for _, k := range keys {
					if !checker.Delivered(k) {
						return false
					}
				}
				return true
			}
			if err := net.RunUntil(all, 2_000_000); err != nil {
				t.Fatalf("items not all delivered: %v\n%s", err, rec.Dump())
			}
			if v := checker.Violations(); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
		})
	}
}

func TestArbitraryInitialConfiguration(t *testing.T) {
	t.Parallel()
	// The snap-stabilization claim itself: corrupt every machine variable
	// and fill every channel with well-formed FWD garbage, then check
	// every submitted item is still delivered exactly once — across many
	// seeds and tree shapes.
	shapes := map[string]func(seed uint64) *core.Topology{
		"line": func(uint64) *core.Topology { return core.Line(7) },
		"star": func(uint64) *core.Topology { return core.Star(7) },
		"tree": func(seed uint64) *core.Topology { return core.RandomTree(7, rng.New(rng.Mix(seed, 0x54))) },
	}
	for name, mk := range shapes {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 15; seed++ {
				topo := mk(seed)
				net, machines, checker, rec := testNet(t, topo, sim.WithSeed(seed))
				config.Corrupt(net, rng.New(rng.Mix(seed, 977)), config.Options{})
				n := topo.N()
				var keys []spec.FwdKey
				for src := 0; src < n; src++ {
					dst := core.ProcID((src + 3) % n)
					keys = append(keys, submit(net, machines[src], checker, core.ProcID(src), dst, SeqFloor+int64(src)))
				}
				all := func() bool {
					for _, k := range keys {
						if !checker.Delivered(k) {
							return false
						}
					}
					return true
				}
				if err := net.RunUntil(all, 5_000_000); err != nil {
					t.Fatalf("seed %d: items not all delivered: %v\n%s", seed, err, rec.Dump())
				}
				if v := checker.Violations(); len(v) != 0 {
					t.Fatalf("seed %d: violations: %v", seed, v)
				}
			}
		})
	}
}

func TestWithholdPreservesBusyReceiver(t *testing.T) {
	t.Parallel()
	// Fill process 1's In buffer for the edge from 0 by hand, then submit
	// a genuine item 0 -> 2. The transfer must stall (withhold) until the
	// buffer drains, and the genuine item must still arrive exactly once.
	topo := core.Line(3)
	net, machines, checker, rec := testNet(t, topo, sim.WithSeed(11))
	// The simulator is single-threaded, so fabricating state between runs
	// is a plain assignment.
	blocked := Item{Src: 0, Dst: 2, Seq: 7, Body: []byte{1}} // fabricated: below SeqFloor
	machines[1].In[0] = slotFor(blocked)
	k := submit(net, machines[0], checker, 0, 2, SeqFloor)
	if err := net.RunUntil(func() bool { return checker.Delivered(k) }, 500000); err != nil {
		t.Fatalf("withheld item never delivered: %v\n%s", err, rec.Dump())
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestSanitizeDiscardsOnlyGarbage(t *testing.T) {
	t.Parallel()
	topo := core.Line(3)
	net, machines, checker, rec := testNet(t, topo, sim.WithSeed(2))
	// Backtracking: sitting in In[0] at process 1 but routed back
	// through 0. Unroutable: endpoints outside the system.
	machines[1].In[0] = slotFor(Item{Src: 2, Dst: 0, Seq: 9})
	machines[1].In[2] = slotFor(Item{Src: 0, Dst: 55, Seq: 10})
	if err := net.RunUntil(net.Quiescent, 500000); err != nil {
		t.Fatalf("network never quiesced: %v\n%s", err, rec.Dump())
	}
	discards := 0
	for _, e := range rec.Events() {
		if e.Kind == core.EvFwdDiscard {
			discards++
		}
	}
	if discards != 2 {
		t.Errorf("%d discards, want 2 (backtracking + unroutable)\n%s", discards, rec.Dump())
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// slotFor builds a full buffer slot (test helper for fabricating state).
func slotFor(it Item) slot { return slot{item: it, full: true} }

func TestGarbageSequencesStayBelowFloor(t *testing.T) {
	t.Parallel()
	r := rng.New(42)
	_, machines, _, _ := testNet(t, core.Line(8))
	for i := 0; i < 1000; i++ {
		m := machines[0].Garbage(r)
		if m.B.Num >= SeqFloor {
			t.Fatalf("garbage sequence %d reached the application range", m.B.Num)
		}
		it, ok := decodeItem(m)
		if !ok {
			t.Fatal("garbage message does not decode as an item")
		}
		if int(it.Src) >= 8 || int(it.Dst) >= 8 || it.Src < 0 || it.Dst < 0 {
			t.Fatalf("garbage endpoints %v outside the system", it)
		}
	}
}

func TestSnapshotCanonical(t *testing.T) {
	t.Parallel()
	topo := core.Star(4)
	hops := topo.NextHops()
	mk := func() *Forwarder {
		return New("fwd", 0, 4, topo.Neighbors(0), hops[0], Callbacks{})
	}
	a, b := mk(), mk()
	if string(a.AppendState(nil)) != string(b.AppendState(nil)) {
		t.Fatal("identical machines snapshot differently")
	}
	b.State[1] = 2
	if string(a.AppendState(nil)) == string(b.AppendState(nil)) {
		t.Fatal("snapshot misses State")
	}
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	topo := core.Line(3)
	hops := topo.NextHops()
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"n-too-small", func() { New("fwd", 0, 1, nil, []core.ProcID{-1}, Callbacks{}) }},
		{"hops-wrong-len", func() { New("fwd", 0, 3, topo.Neighbors(0), hops[0][:1], Callbacks{}) }},
		{"bad-capacity", func() { New("fwd", 0, 3, topo.Neighbors(0), hops[0], Callbacks{}, WithCapacityBound(0)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
	var m *Forwarder
	func() {
		defer func() { recover() }()
		m = New("fwd", 0, 3, topo.Neighbors(0), hops[0], Callbacks{})
	}()
	if m == nil {
		t.Fatal("valid construction panicked")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Submit accepted an out-of-range destination")
			}
		}()
		m.Submit(fakeEnv{}, Item{Src: 0, Dst: 9, Seq: SeqFloor})
	}()
	_ = fmt.Sprint(m)
}

// fakeEnv satisfies core.Env for validation paths that never reach it.
type fakeEnv struct{}

func (fakeEnv) Self() core.ProcID              { return 0 }
func (fakeEnv) N() int                         { return 3 }
func (fakeEnv) Send(core.ProcID, core.Message) {}
func (fakeEnv) Emit(core.Event)                {}
