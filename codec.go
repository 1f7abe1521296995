package snapstab

import (
	"encoding/json"
	"fmt"
)

// Codec marshals application values of type T into the opaque payload
// body the protocols propagate, and back. The snap-stabilizing machines
// never inspect the bytes — like the message-switched forwarding model,
// the carried datum is opaque application data — so any serialization
// works, and the guarantees (every request served from an arbitrary
// initial configuration) are codec-independent.
//
// A codec must be deterministic for the cluster's value-exact checks:
// Marshal(v) must always produce the same bytes for the same value
// during one request's lifetime. Unmarshal must tolerate arbitrary
// input — a corrupted initial configuration (CorruptEverything) hands it
// garbage bodies, and it must return an error rather than panic. That is
// the only source: a message WithFaults' CorruptRate garbles in flight is
// discarded before any codec sees it.
type Codec[T any] interface {
	// Marshal serializes v into an opaque body.
	Marshal(v T) ([]byte, error)
	// Unmarshal parses a body produced by Marshal (or adversarial
	// garbage, which it must reject with an error, not a panic).
	Unmarshal(data []byte) (T, error)
}

// Bytes is the identity codec: the application value IS the body. Every
// byte slice unmarshals successfully, so a garbage body from a corrupted
// initial configuration is told apart by its payload tag alone, never by
// a decode error — the rawest adversarial surface.
var Bytes Codec[[]byte] = bytesCodec{}

type bytesCodec struct{}

// Marshal and Unmarshal both copy: blob backing arrays are shared with
// in-flight messages and must stay immutable, so neither side may alias
// application-owned memory (a caller mutating its slice after
// BroadcastAsync would otherwise race the process goroutines).
func (bytesCodec) Marshal(v []byte) ([]byte, error) {
	if len(v) == 0 {
		return nil, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

func (bytesCodec) Unmarshal(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, nil
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// String is the UTF-8 string codec.
var String Codec[string] = stringCodec{}

type stringCodec struct{}

func (stringCodec) Marshal(v string) ([]byte, error)      { return []byte(v), nil }
func (stringCodec) Unmarshal(data []byte) (string, error) { return string(data), nil }

// JSON returns a codec marshaling T through encoding/json: the
// zero-dependency way to carry struct payloads. Corrupted bodies fail
// Unmarshal with a JSON syntax error and are surfaced per feedback (see
// TypedFeedback.Err) instead of crashing the cluster.
func JSON[T any]() Codec[T] { return jsonCodec[T]{} }

type jsonCodec[T any] struct{}

func (jsonCodec[T]) Marshal(v T) ([]byte, error) { return json.Marshal(v) }
func (jsonCodec[T]) Unmarshal(data []byte) (T, error) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("snapstab: json payload: %w", err)
	}
	return v, nil
}
