package sim_test

import (
	"testing"
	"unsafe"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/mutex"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

// TestLinksKeepSenderInstance checks that every link stores its sender
// machine's own instance string, so a send compares pointer-equal names.
// config.FillChannels creates every link from process 0's machines;
// a later send from each process must find that link, not a second one.
func TestLinksKeepSenderInstance(t *testing.T) {
	t.Parallel()
	const n = 4
	stacks := make([]core.Stack, n)
	for i := range stacks {
		stacks[i] = mutex.New("me", core.ProcID(i), n, int64(i+1)).Machines()
	}
	net := sim.New(stacks, sim.WithSeed(1))
	config.FillChannels(net, rng.New(3), config.Options{FillProbability: 1})
	filled := len(net.Links())
	if filled == 0 {
		t.Fatal("FillChannels created no link")
	}
	own := func(p core.ProcID, inst string) core.Machine {
		for _, mach := range net.Stack(p) {
			if mach.Instance() == inst {
				return mach
			}
		}
		return nil
	}
	distinct := 0
	for _, k := range net.Links() {
		sender := own(k.From, k.Instance)
		if sender == nil {
			t.Fatalf("link %v: sender runs no machine of that instance", k)
		}
		inst := sender.Instance()
		net.Env(k.From).Send(k.To, core.Message{Instance: inst, Kind: "PROBE"})
		if unsafe.StringData(inst) != unsafe.StringData(own(0, k.Instance).Instance()) {
			distinct++
		}
	}
	if distinct == 0 {
		t.Fatal("every process shares process 0's instance strings: the check below proves nothing")
	}
	if got := len(net.Links()); got != filled {
		t.Fatalf("sends after FillChannels made %d links, want the %d it created", got, filled)
	}
	for _, k := range net.Links() {
		if want := own(k.From, k.Instance).Instance(); unsafe.StringData(k.Instance) != unsafe.StringData(want) {
			t.Errorf("link %v stores another string than its sender's Instance()", k)
		}
	}
}
