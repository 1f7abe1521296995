package sim_test

import (
	"reflect"
	"testing"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/mutex"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

// protocolLog is a core.ProtocolObserver that keeps every event it gets.
type protocolLog struct{ events []core.Event }

func (l *protocolLog) OnEvent(e core.Event) { l.events = append(l.events, e) }
func (*protocolLog) IgnoresTraffic()        {}

// observedRun executes a corrupted n = 4 mutual-exclusion stack under loss
// 0.2 and a fault plan that drops, duplicates, reorders and delays, with
// every process requesting the critical section whenever it may. The
// same seed builds the same machines, garbage and plan for every set of
// observers.
func observedRun(t *testing.T, steps int, obs ...core.Observer) *sim.Network {
	t.Helper()
	const n = 4
	machines := make([]*mutex.ME, n)
	stacks := make([]core.Stack, n)
	for i := range machines {
		machines[i] = mutex.New("me", core.ProcID(i), n, int64(i*10+3))
		stacks[i] = machines[i].Machines()
	}
	opts := []sim.Option{
		sim.WithSeed(5),
		sim.WithLossRate(0.2),
		sim.WithFaults(&core.FaultPlan{Seed: 9, Default: core.LinkFaults{
			DropRate: 0.05, DupRate: 0.05, ReorderRate: 0.05, DelayRate: 0.05, DelayTicks: 40,
		}}),
	}
	for _, o := range obs {
		opts = append(opts, sim.WithObserver(o))
	}
	net := sim.New(stacks, opts...)
	config.Corrupt(net, rng.New(17), config.Options{})
	for s := 0; s < steps; s++ {
		if s%64 == 0 {
			for i, m := range machines {
				if !m.Requested() {
					m.Invoke(net.Env(core.ProcID(i)))
				}
			}
		}
		net.Step()
	}
	return net
}

func isTraffic(k core.EventKind) bool {
	switch k {
	case core.EvSend, core.EvSendLost, core.EvDeliver, core.EvLose:
		return true
	}
	return false
}

// TestObserversNeverChangeTheExecution: a protocol-only observer sees
// exactly the protocol events an unmarked observer sees, Step stamps
// included, and which observers are installed — both kinds, only the
// protocol-only one, or none — changes neither the counters nor the final
// configuration. The fault plan sends messages through every delivery
// path: the injector's drops, its duplicate pairs, and held-back messages
// surfacing later.
func TestObserversNeverChangeTheExecution(t *testing.T) {
	t.Parallel()
	const steps = 20_000
	rec := core.NewRecorder(1 << 16)
	both := &protocolLog{}
	withBoth := observedRun(t, steps, rec, both)
	if rec.Total() != len(rec.Events()) {
		t.Fatalf("the recorder evicted events: %d recorded, %d kept", rec.Total(), len(rec.Events()))
	}

	var protocol []core.Event
	lost := 0
	for _, e := range rec.Events() {
		if isTraffic(e.Kind) {
			if e.Kind == core.EvLose {
				lost++
			}
			continue
		}
		protocol = append(protocol, e)
	}
	if !reflect.DeepEqual(both.events, protocol) {
		t.Fatalf("the protocol-only observer saw %d events, the recorder %d protocol events; they differ", len(both.events), len(protocol))
	}
	f := withBoth.Stats().Faults
	s := withBoth.Stats()
	if len(protocol) == 0 || f.Drops == 0 || f.Duplicates == 0 || f.Reorders == 0 || f.Delays == 0 || lost != s.LinkLosses+int(f.Drops) {
		t.Fatalf("the run misses a path: %d protocol events, faults %+v, %d lose events for %d link losses", len(protocol), f, lost, s.LinkLosses)
	}

	alone := &protocolLog{}
	withMarked := observedRun(t, steps, alone)
	if !reflect.DeepEqual(alone.events, both.events) {
		t.Fatal("the protocol-only observer's view changed with a recorder beside it")
	}
	bare := observedRun(t, steps)
	for name, net := range map[string]*sim.Network{"protocol-only observer": withMarked, "no observer": bare} {
		if net.Stats() != withBoth.Stats() {
			t.Errorf("%s: Stats %+v, with both observers %+v", name, net.Stats(), withBoth.Stats())
		}
		if net.ConfigHash() != withBoth.ConfigHash() {
			t.Errorf("%s: the final configuration differs from the run with both observers", name)
		}
	}
}
