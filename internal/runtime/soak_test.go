package runtime

import (
	"fmt"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// TestRuntimeSoak is the scaled-up confidence run for the engine in
// memory: n = 8 and 16, c = 2, corrupted initial states, loss injected
// through the drop plan, and rotating initiators. Skipped under -short.
func TestRuntimeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	t.Parallel()
	for _, tc := range []struct {
		n    int
		loss float64
	}{
		{n: 8, loss: 0},
		{n: 8, loss: 0.2},
		{n: 16, loss: 0},
		{n: 16, loss: 0.1},
	} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d/loss=%v", tc.n, tc.loss), func(t *testing.T) {
			t.Parallel()
			stacks, machines := pifStacksAt(tc.n, 2)
			r := rng.New(uint64(tc.n)*31 + uint64(tc.loss*100))
			for _, m := range machines {
				m.Corrupt(r)
			}
			opts := []engine.Option{engine.WithCapacity(2)}
			if tc.loss > 0 {
				opts = append(opts, lossy(tc.loss))
			}
			e := start(t, stacks, opts...)

			for round := 0; round < 5; round++ {
				p := core.ProcID(round % tc.n)
				token := core.Payload{Tag: "soak", Num: int64(round*100 + tc.n)}
				invoked := waitFor(t, 30*time.Second, func() bool {
					var ok bool
					e.Do(p, func(env core.Env) { ok = machines[p].Invoke(env, token) })
					return ok
				})
				if !invoked {
					t.Fatalf("round %d: initiator %d never accepted the request", round, p)
				}
				done := waitFor(t, 60*time.Second, func() bool {
					var d bool
					e.Do(p, func(core.Env) { d = machines[p].Done() && machines[p].BMes.Equal(token) })
					return d
				})
				if !done {
					t.Fatalf("round %d: broadcast from %d did not decide", round, p)
				}
			}
		})
	}
}
