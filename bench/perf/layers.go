package main

import (
	"bytes"
	"fmt"
	"time"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/wire"
)

// The metrics in this file come from direct calls into one layer's
// public functions, outside any cluster: what the layer costs by itself.

// wireBatch is the batch size of the wire v3 direct-call metrics, the
// UDP transport's default coalescing ceiling.
const wireBatch = 16

// noopEnv is a core.Env that swallows sends and events, so Step and
// Deliver cost only the protocol machine.
type noopEnv struct{}

func (noopEnv) Self() core.ProcID              { return 0 }
func (noopEnv) N() int                         { return pifN }
func (noopEnv) Send(core.ProcID, core.Message) {}
func (noopEnv) Emit(core.Event)                {}

// wireMetrics measures internal/wire on one PIF message whose two
// payloads carry blobLen opaque bytes each; suffix names the size.
func wireMetrics(m map[string]float64, suffix string, blobLen int, budget time.Duration) error {
	msg := core.Message{
		Instance: "pif", Kind: pif.Kind, State: 3, Echo: 2,
		B: core.Payload{Tag: "bench", Num: 1 << 40},
		F: core.Payload{Tag: "ack", Num: 1<<40 + 1},
	}
	if blobLen > 0 {
		blob := bytes.Repeat([]byte{'x'}, blobLen)
		msg.B.Blob, msg.F.Blob = blob, blob
	}
	frame, err := wire.Encode(msg)
	if err != nil {
		return fmt.Errorf("wire.Encode: %w", err)
	}
	if got, err := wire.Decode(frame); err != nil {
		return fmt.Errorf("wire.Decode: %w", err)
	} else if !got.B.Equal(msg.B) || !got.F.Equal(msg.F) {
		return fmt.Errorf("wire round trip of a %d-byte blob changed the message", blobLen)
	}
	msgs := make([]core.Message, wireBatch)
	for i := range msgs {
		msgs[i] = msg
	}
	batch, err := wire.AppendBatch(nil, 1, msgs)
	if err != nil {
		return fmt.Errorf("wire.AppendBatch: %w", err)
	}

	buf := make([]byte, 0, len(batch))
	var failed error
	keep := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	encNS, encAllocs := timeLoop(budget, func() {
		out, err := wire.AppendEncode(buf[:0], msg)
		buf = out[:0]
		keep(err)
	})
	decNS, decAllocs := timeLoop(budget, func() {
		_, err := wire.Decode(frame)
		keep(err)
	})
	batchEncNS, _ := timeLoop(budget, func() {
		out, err := wire.AppendBatch(buf[:0], 1, msgs)
		buf = out[:0]
		keep(err)
	})
	scratch := make([]core.Message, 0, wireBatch)
	batchDecNS, _ := timeLoop(budget, func() {
		_, out, err := wire.DecodeBatch(scratch[:0], batch)
		scratch = out[:0]
		keep(err)
	})
	if failed != nil {
		return failed
	}
	m["wire.encode_ns_per_msg"+suffix] = encNS
	m["wire.decode_ns_per_msg"+suffix] = decNS
	m["wire.batch_encode_ns_per_msg"+suffix] = batchEncNS / wireBatch
	m["wire.batch_decode_ns_per_msg"+suffix] = batchDecNS / wireBatch
	m["wire.bytes_per_msg"+suffix] = float64(len(frame))
	m["wire.encode_allocs_per_msg"+suffix] = encAllocs
	m["wire.decode_allocs_per_msg"+suffix] = decAllocs
	return nil
}

// pifMetrics measures the protocol machine against a no-op environment,
// held in the steady state of a computation in progress: Step
// retransmits to both peers, Deliver consumes a message whose echo does
// not match and answers it.
func pifMetrics(m map[string]float64, budget time.Duration) {
	env := noopEnv{}
	machine := pif.New("pif", 0, pifN, pif.Callbacks{}, pif.WithCapacityBound(1))
	machine.Invoke(env, core.Payload{Tag: "bench", Num: 1})
	machine.Step(env)
	stale := core.Message{Instance: "pif", Kind: pif.Kind, State: 0, Echo: machine.FlagTop()}
	m["pif.step_ns"], _ = timeLoop(budget, func() { machine.Step(env) })
	m["pif.deliver_ns"], _ = timeLoop(budget, func() { machine.Deliver(env, 1, stale) })
}

// codecMetrics measures the façade's JSON codec on the workload's own
// payload.
func codecMetrics(m map[string]float64, payload *Order, budget time.Duration) error {
	codec := snapstab.JSON[Order]()
	data, err := codec.Marshal(*payload)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	if back, err := codec.Unmarshal(data); err != nil {
		return fmt.Errorf("codec: %w", err)
	} else if back != *payload {
		return fmt.Errorf("codec round trip changed the payload")
	}
	var failed error
	m["facade.codec_encode_ns"], _ = timeLoop(budget, func() {
		if _, err := codec.Marshal(*payload); err != nil {
			failed = err
		}
	})
	m["facade.codec_decode_ns"], _ = timeLoop(budget, func() {
		if _, err := codec.Unmarshal(data); err != nil {
			failed = err
		}
	})
	return failed
}
