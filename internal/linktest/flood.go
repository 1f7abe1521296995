package linktest

import (
	"sync/atomic"

	"github.com/snapstab/snapstab/internal/core"
)

// flooder is the synthetic machine of the throughput measurements: Step
// seeds one message to each peer and Deliver echoes one back, so the
// traffic sustains itself and the delivery rate measures the substrate's
// message path, not the step pacing.
type flooder struct {
	seq       int64  // numbers every message: the engines send only what differs from a link's last message
	blob      []byte // opaque payload body carried by every message
	delivered *atomic.Int64
}

func (f *flooder) Instance() string { return "flood" }

func (f *flooder) Step(env core.Env) bool {
	self, n := env.Self(), core.ProcID(env.N())
	for q := core.ProcID(0); q < n; q++ {
		if q != self {
			env.Send(q, f.next())
		}
	}
	return true
}

func (f *flooder) Deliver(env core.Env, from core.ProcID, _ core.Message) {
	f.delivered.Add(1)
	env.Send(from, f.next())
}

func (f *flooder) next() core.Message {
	f.seq++
	return core.Message{Instance: "flood", Kind: "flood", B: core.Payload{Num: f.seq, Blob: f.blob}}
}

// Flood builds n flooder stacks on instance "flood": every message
// carries a blob-byte body and every delivery counts into delivered. The
// in-memory and UDP links' benchmarks and snapbench's flood matrix all
// drive it; this package imports none of them.
func Flood(n, blob int, delivered *atomic.Int64) []core.Stack {
	var body []byte
	if blob > 0 {
		body = make([]byte, blob)
		for i := range body {
			body[i] = byte(i)
		}
	}
	stacks := make([]core.Stack, n)
	for i := range stacks {
		stacks[i] = core.Stack{&flooder{blob: body, delivered: delivered}}
	}
	return stacks
}
