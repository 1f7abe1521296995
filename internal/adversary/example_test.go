package adversary_test

import (
	"fmt"
	"log"

	"github.com/snapstab/snapstab/internal/adversary"
)

// Theorem 1 executed step by step: record a legal execution of PIF and
// its message sequence MesSeq, preload MesSeq into the channel of a fresh
// system (γ0), and replay with the peer silenced. On unbounded channels
// the victim re-lives its computation and decides while its peer never
// took part, the bad thing of every feedback-based specification. Against
// a bounded channel the preload does not fit: γ0 does not exist. That
// asymmetry is the entire positive story of the paper.
func ExampleReplay() {
	fmt.Println("=== Theorem 1, executed ===")
	fmt.Println()
	fmt.Println("step 1: record a legal execution of PIF (capacity bound 1, flags {0..4})")
	rec, err := adversary.Record(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recorded MesSeq: %d messages consumed by the victim\n", len(rec.MesSeq))
	fmt.Printf("  recorded Φ_p(BAD): %d state samples\n\n", len(rec.Projection))

	fmt.Println("step 2+3: preload MesSeq into a fresh system and replay, peer silenced")
	for _, regime := range []struct {
		name      string
		capacity  int
		unbounded bool
	}{
		{"unbounded channels (the impossibility regime)", 0, true},
		{"capacity-1 channels (the known bound the protocol assumes)", 1, false},
	} {
		out := adversary.Replay(rec, 1, regime.capacity, regime.unbounded)
		fmt.Printf("  %s:\n", regime.name)
		if !out.PreloadAccepted {
			fmt.Printf("    γ0 rejected: a %d-message preload does not fit — the configuration of the proof does not exist.\n",
				out.PreloadLen)
			fmt.Println("    attack impossible: snap-stabilization survives.")
			continue
		}
		fmt.Printf("    γ0 constructed (%d messages preloaded)\n", out.PreloadLen)
		fmt.Printf("    victim decided: %v; peer ever participated: %v\n", out.Decided, out.PeerParticipated)
		fmt.Printf("    victim's state sequence reproduces Φ_p(BAD): %v\n", out.ProjectionReproduced)
		if out.Violation() {
			fmt.Println("    => SAFETY VIOLATED: the computation \"completed\" without the peer —")
			fmt.Println("       a mutual-exclusion privilege or ID table built this way is worthless.")
		}
	}
	fmt.Println()
	fmt.Println("conclusion: the bound on channel capacity must be KNOWN; given the bound,")
	fmt.Println("Algorithm 1 sizes its flag domain to outcount any admissible garbage.")
	// Output:
	// === Theorem 1, executed ===
	//
	// step 1: record a legal execution of PIF (capacity bound 1, flags {0..4})
	//   recorded MesSeq: 8 messages consumed by the victim
	//   recorded Φ_p(BAD): 18 state samples
	//
	// step 2+3: preload MesSeq into a fresh system and replay, peer silenced
	//   unbounded channels (the impossibility regime):
	//     γ0 constructed (8 messages preloaded)
	//     victim decided: true; peer ever participated: false
	//     victim's state sequence reproduces Φ_p(BAD): true
	//     => SAFETY VIOLATED: the computation "completed" without the peer —
	//        a mutual-exclusion privilege or ID table built this way is worthless.
	//   capacity-1 channels (the known bound the protocol assumes):
	//     γ0 rejected: a 8-message preload does not fit — the configuration of the proof does not exist.
	//     attack impossible: snap-stabilization survives.
	//
	// conclusion: the bound on channel capacity must be KNOWN; given the bound,
	// Algorithm 1 sizes its flag domain to outcount any admissible garbage.
}
