package snapstab

import (
	"context"
	"fmt"
	"sync"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/wire"
)

// typedTag marks payloads produced by a typed cluster's codec, so traces
// distinguish application bodies from initial-configuration garbage.
const typedTag = "app"

// typedGarbageBlob is how many opaque garbage bytes (at most, per
// payload) CorruptEverything draws for typed clusters, exercising the
// codec's rejection path from the arbitrary initial configuration.
const typedGarbageBlob = 64

// TypedPIFCluster is a fully-connected system running Protocol PIF on
// the selected substrate, carrying application values of type T through
// the codec's opaque payload bodies. The snap-stabilization guarantee is
// unchanged: every broadcast request decides on feedback produced for
// that very computation, from ANY initial configuration — what travels
// in the messages is now the application's own type.
//
//	type Order struct{ SKU string; Qty int }
//	c := snapstab.NewTypedPIFCluster(5, snapstab.JSON[Order]())
//	defer c.Close()
//	c.CorruptEverything(42)
//	fb, err := c.Broadcast(0, Order{SKU: "widget", Qty: 3})
//
// The default receiver echoes the broadcast value back, which keeps the
// Specification 1 Decision clause value-checkable; install application
// logic with WithReceiverT.
type TypedPIFCluster[T any] struct {
	*pifCore
	codec Codec[T]
}

// WithReceiverT installs the typed application broadcast handler: it
// runs at process proc when a broadcast from process from is accepted
// and returns the feedback value, both marshaled through the cluster's
// codec. Only valid with NewTypedPIFCluster over the same T (the
// constructor panics otherwise). From a corrupted initial configuration
// a receiver may be handed garbage the codec rejects; the machine then
// answers with an explicitly tagged undecodable marker instead of
// invoking f with a fabricated value.
func WithReceiverT[T any](f func(proc, from int, b T) T) Option {
	return func(o *options) { o.onReceiveTyped = f }
}

// NewTypedPIFCluster builds an n-process PIF deployment (n >= 2)
// carrying T-typed payloads through codec.
func NewTypedPIFCluster[T any](n int, codec Codec[T], opts ...Option) *TypedPIFCluster[T] {
	if codec == nil {
		panic("snapstab: NewTypedPIFCluster requires a codec")
	}
	o := buildOptions(opts)
	if o.onReceive != nil {
		panic("snapstab: WithReceiver carries legacy payloads; use WithReceiverT with typed clusters")
	}
	cfg := pifConfig{garbageBlob: typedGarbageBlob}
	if o.onReceiveTyped == nil {
		// Echo receiver: feedback is the broadcast payload verbatim, so
		// the expected value at every process is the token itself and the
		// Decision clause stays value-exact. A body beyond the wire bound
		// (only a corrupted configuration could hold one) must not be
		// echoed into the feedback — it would fail encoding at every UDP
		// send — so it degrades to the unencodable marker instead.
		cfg.recv = func(proc, from int, b core.Payload) core.Payload {
			if len(b.Blob) > wire.MaxBlobLen {
				return core.Payload{Tag: "unencodable"}
			}
			return b
		}
		cfg.expect = func(q core.ProcID, b core.Payload) core.Payload { return b }
	} else {
		f, ok := o.onReceiveTyped.(func(proc, from int, b T) T)
		if !ok {
			panic(fmt.Sprintf("snapstab: WithReceiverT handler %T does not match cluster payload type", o.onReceiveTyped))
		}
		cfg.recv = func(proc, from int, b core.Payload) core.Payload {
			if b.Tag != typedTag {
				// Not an application payload at all (garbage of the initial
				// configuration, in a channel or in machine state): answer with the marker without
				// consulting the codec — under never-failing codecs
				// (Bytes, String) Unmarshal alone cannot tell.
				return core.Payload{Tag: "undecodable"}
			}
			v, err := codec.Unmarshal(b.Blob)
			if err != nil {
				// A tagged body the codec rejects (garbage the initial
				// configuration happened to tag): answer neutrally and
				// recognizably rather than fabricate a T.
				return core.Payload{Tag: "undecodable"}
			}
			out, err := codec.Marshal(f(proc, from, v))
			if err != nil || len(out) > wire.MaxBlobLen {
				// An unencodable (or wire-oversized, which UDP could never
				// carry) feedback must not poison the handshake: answer
				// with the recognizable marker and let the initiator's
				// TypedFeedback.Err surface it.
				return core.Payload{Tag: "unencodable"}
			}
			return core.Payload{Tag: typedTag, Blob: out}
		}
	}
	return &TypedPIFCluster[T]{pifCore: newPIFCore(n, cfg, o), codec: codec}
}

// encode marshals v into the wire payload. Bodies are bounded by the
// wire format's MaxBlobLen even on the in-memory substrates: an
// oversized body on UDP would fail encoding at every send — silent
// per-datagram drops the blocking request waits out forever — so the
// bound is enforced up front, uniformly, where the caller gets an
// error.
func (c *TypedPIFCluster[T]) encode(v T) (core.Payload, error) {
	data, err := c.codec.Marshal(v)
	if err != nil {
		return core.Payload{}, fmt.Errorf("snapstab: marshal broadcast payload: %w", err)
	}
	if len(data) > wire.MaxBlobLen {
		return core.Payload{}, fmt.Errorf("snapstab: marshaled payload of %d bytes exceeds the %d-byte wire limit", len(data), wire.MaxBlobLen)
	}
	return core.Payload{Tag: typedTag, Blob: data}, nil
}

// ArmSpec arms the cluster's Specification 1 checker for the next
// broadcast of v initiated at process p (see PIFCluster.ArmSpec). With the default echo receiver the Decision
// clause is checked value-for-value against the marshaled bytes;
// SpecReport.ValueChecked reports whether that comparison ran.
func (c *TypedPIFCluster[T]) ArmSpec(p int, v T) error {
	token, err := c.encode(v)
	if err != nil {
		return err
	}
	return c.armSpec(p, token)
}

// SpecReport returns the armed computation's verdict so far.
func (c *TypedPIFCluster[T]) SpecReport() SpecReport { return c.specReport() }

// TypedFeedback is one process's acknowledgment, decoded through the
// cluster's codec.
type TypedFeedback[T any] struct {
	// From is the acknowledging process.
	From int
	// Value is the decoded feedback; meaningful only when Err is nil.
	Value T
	// Err reports a feedback that was not a decodable application
	// payload: a receiver's undecodable / unencodable marker, a body the
	// codec rejected, or an untagged payload. A receiver whose handler
	// returns a value the codec cannot marshal reaches the first; the
	// others are checks — channels only lose, so undecodable bodies come
	// from an arbitrary initial configuration only, and the handshake
	// keeps those out of a started request's decision. The typed API
	// checks regardless rather than hand the application a zero T, even
	// under codecs whose Unmarshal never fails.
	Err error
}

// TypedBroadcastRequest is the handle of an asynchronous typed
// Broadcast.
type TypedBroadcastRequest[T any] struct {
	*Request
	c   *TypedPIFCluster[T]
	raw *payloadBroadcastRequest

	once sync.Once
	fb   []TypedFeedback[T]
}

// Feedbacks returns the acknowledgments collected from every other
// process, decoded through the cluster's codec; valid after the request
// completed successfully, nil while it is still in flight. The decode
// runs once, on the first call after completion (an in-flight call must
// neither latch an empty result nor race the completion condition's
// write of the raw feedback).
func (r *TypedBroadcastRequest[T]) Feedbacks() []TypedFeedback[T] {
	if !r.completed() {
		return nil
	}
	r.once.Do(func() {
		r.fb = make([]TypedFeedback[T], len(r.raw.fb))
		for i, f := range r.raw.fb {
			// A payload not tagged as an application body is a receiver's
			// undecodable/unencodable marker, or garbage of the initial
			// configuration. It must
			// surface as Err even under codecs whose Unmarshal never
			// fails (Bytes, String) — a fabricated zero value with a nil
			// Err is exactly what this API promises not to produce.
			if f.Value.Tag != typedTag {
				r.fb[i] = TypedFeedback[T]{From: f.From,
					Err: fmt.Errorf("snapstab: feedback from %d is %q, not an application payload", f.From, f.Value.Tag)}
				continue
			}
			v, err := r.c.codec.Unmarshal(f.Value.Blob)
			r.fb[i] = TypedFeedback[T]{From: f.From, Value: v, Err: err}
		}
	})
	return r.fb
}

// BroadcastAsync submits a PIF computation request for value v at
// process p and returns immediately; see PIFCluster.BroadcastAsync for
// the request semantics. A value the codec cannot marshal fails the
// request up front.
func (c *TypedPIFCluster[T]) BroadcastAsync(p int, v T) *TypedBroadcastRequest[T] {
	token, err := c.encode(v)
	if err != nil {
		req := &TypedBroadcastRequest[T]{Request: c.newRequest(), c: c, raw: &payloadBroadcastRequest{}}
		req.err = err
		close(req.done)
		return req
	}
	raw := c.broadcastAsync(p, token)
	return &TypedBroadcastRequest[T]{Request: raw.Request, c: c, raw: raw}
}

// Broadcast requests a PIF computation for value v at process p and runs
// the cluster until the decision, returning the decoded feedback
// collected from every other process.
func (c *TypedPIFCluster[T]) Broadcast(p int, v T) ([]TypedFeedback[T], error) {
	req := c.BroadcastAsync(p, v)
	if err := req.Wait(context.Background()); err != nil {
		return nil, err
	}
	return req.Feedbacks(), nil
}
