package termdet

import (
	"fmt"
	"log"

	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

// Knowing when a distributed computation is done. Three processes run a
// token-diffusion computation (tokens hop with a time-to-live, carried by
// a reliable transfer); a detector built on snap-stabilizing PIF waves
// declares termination, never prematurely, even though its own state
// starts corrupted.
func ExampleDetector() {
	net, detectors, apps := build(3, sim.WithSeed(12), sim.WithLossRate(0.1))

	// Corrupt the detectors (not the observed application) — the paper's
	// arbitrary initial configuration for the protocol under test.
	r := rng.New(5)
	for _, d := range detectors {
		d.Corrupt(r)
		d.PIF.Corrupt(r)
	}

	// Seed the computation: 20 token-hops of work.
	apps[0].pending = []int{12}
	apps[2].pending = []int{8}
	fmt.Println("3 processes; 20 token-hops of distributed work; detectors corrupted")

	requested := false
	err := net.RunUntil(func() bool {
		if !requested {
			requested = detectors[0].Invoke(net.Env(0))
			return false
		}
		return detectors[0].Done()
	}, 50_000_000)
	if err != nil {
		log.Fatal(err)
	}
	if !detectors[0].Terminated {
		log.Fatal("detector completed without a verdict")
	}
	// The whole point: at declaration time, the computation is REALLY over.
	for i, a := range apps {
		if !a.Passive() {
			log.Fatalf("process %d still active at declaration", i)
		}
	}
	fmt.Printf("termination declared after %d waves; all processes passive, counters balanced\n",
		detectors[0].Waves)
	sent, recv := int64(0), int64(0)
	for _, a := range apps {
		s, r := a.Counts()
		sent, recv = sent+s, recv+r
	}
	fmt.Printf("global counters: %d sent = %d received — no message left behind\n", sent, recv)
	// Output:
	// 3 processes; 20 token-hops of distributed work; detectors corrupted
	// termination declared after 5 waves; all processes passive, counters balanced
	// global counters: 20 sent = 20 received — no message left behind
}
