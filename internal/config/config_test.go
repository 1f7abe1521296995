package config

import (
	"testing"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

func pifStacks(n int) ([]core.Stack, []*pif.PIF) {
	stacks := make([]core.Stack, n)
	machines := make([]*pif.PIF, n)
	for i := 0; i < n; i++ {
		machines[i] = pif.New("pif", core.ProcID(i), n, pif.Callbacks{})
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

func TestCorruptMachinesChangesState(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(3)
	net := sim.New(stacks)
	before := make([]string, 3)
	for i, m := range machines {
		before[i] = string(m.AppendState(nil))
	}
	CorruptMachines(net, rng.New(7))
	changed := 0
	for i, m := range machines {
		if string(m.AppendState(nil)) != before[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("corruption changed no machine state")
	}
}

func TestFillChannelsRespectsCapacity(t *testing.T) {
	t.Parallel()
	for _, capacity := range []int{1, 2, 4} {
		stacks, _ := pifStacks(3)
		net := sim.New(stacks, sim.WithCapacity(capacity))
		FillChannels(net, rng.New(3), Options{FillProbability: 0.99})
		for _, k := range net.Links() {
			if got := net.Link(k).Len(); got > capacity {
				t.Fatalf("capacity %d: link %v holds %d messages", capacity, k, got)
			}
		}
		if net.InTransit() == 0 {
			t.Fatal("high fill probability produced no garbage at all")
		}
	}
}

func TestFillChannelsCoversAllPairs(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(4)
	net := sim.New(stacks)
	FillChannels(net, rng.New(5), Options{FillProbability: 0.999})
	want := 4 * 3 // directed pairs
	if got := len(net.Links()); got != want {
		t.Fatalf("links created = %d, want %d", got, want)
	}
}

// TestFillChannelsDrawsEachGarblersOwnGarbage: every Garbler in the stack
// fills its own instance's channels with messages it draws itself, and a
// machine that draws no garbage gets no channels.
func TestFillChannelsDrawsEachGarblersOwnGarbage(t *testing.T) {
	t.Parallel()
	const n = 3
	stacks := make([]core.Stack, n)
	for i := range stacks {
		self := core.ProcID(i)
		stacks[i] = core.Stack{
			idle("app"),
			pif.New("a/pif", self, n, pif.Callbacks{}),
			pif.New("b/pif", self, n, pif.Callbacks{}, pif.WithCapacityBound(3)),
		}
	}
	net := sim.New(stacks, sim.WithCapacity(3))
	FillChannels(net, rng.New(21), Options{FillProbability: 0.999})
	tops := map[string]uint8{"a/pif": 4, "b/pif": 8}
	perInstance := make(map[string]int)
	for _, k := range net.Links() {
		perInstance[k.Instance]++
		for _, m := range net.Link(k).Contents() {
			if m.Instance != k.Instance || m.Kind != pif.Kind || m.State > tops[k.Instance] || m.Echo > tops[k.Instance] {
				t.Fatalf("link %v holds %v, not its own instance's garbage", k, m)
			}
		}
	}
	if perInstance["a/pif"] != n*(n-1) || perInstance["b/pif"] != n*(n-1) || perInstance["app"] != 0 {
		t.Fatalf("filled links per instance = %v", perInstance)
	}
}

// idle is a machine with no protocol of its own: it neither acts nor
// draws garbage.
type idle string

func (m idle) Instance() string                          { return string(m) }
func (idle) Step(core.Env) bool                          { return false }
func (idle) Deliver(core.Env, core.ProcID, core.Message) {}

func TestFillChannelsUnboundedUsesMax(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(2)
	net := sim.New(stacks, sim.WithUnbounded())
	FillChannels(net, rng.New(9), Options{FillProbability: 0.999, MaxUnboundedGarbage: 5})
	for _, k := range net.Links() {
		if got := net.Link(k).Len(); got > 5 {
			t.Fatalf("link %v holds %d messages, above MaxUnboundedGarbage", k, got)
		}
	}
}

func TestCorruptIsReproducible(t *testing.T) {
	t.Parallel()
	run := func() string {
		stacks, _ := pifStacks(3)
		net := sim.New(stacks)
		Corrupt(net, rng.New(42), Options{})
		return net.ConfigHash()
	}
	if run() != run() {
		t.Fatal("same corruption seed produced different configurations")
	}
}

func TestCorruptedRunStillSatisfiesSpec(t *testing.T) {
	t.Parallel()
	// End-to-end: corrupt everything, then a requested broadcast still
	// completes (glue test for the corruptor + protocol).
	stacks, machines := pifStacks(3)
	net := sim.New(stacks, sim.WithSeed(11))
	Corrupt(net, rng.New(13), Options{})
	requested := false
	err := net.RunUntil(func() bool {
		if !requested {
			requested = machines[0].Invoke(net.Env(0), core.Payload{Tag: "fresh"})
			return false
		}
		return machines[0].Done() && machines[0].BMes.Tag == "fresh"
	}, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	t.Parallel()
	o := Options{}.withDefaults()
	if o.FillProbability != 0.5 || o.MaxUnboundedGarbage != 3 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{FillProbability: 0.9, MaxUnboundedGarbage: 7}.withDefaults()
	if o.FillProbability != 0.9 || o.MaxUnboundedGarbage != 7 {
		t.Fatalf("explicit values overridden: %+v", o)
	}
}
