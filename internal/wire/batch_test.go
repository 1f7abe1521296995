package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"github.com/snapstab/snapstab/internal/core"
)

func batchMsgs(n int) []core.Message {
	out := make([]core.Message, n)
	for i := range out {
		out[i] = core.Message{
			Instance: "pif", Kind: "PIF",
			B:     core.Payload{Tag: "m", Num: int64(i)},
			F:     core.Payload{Tag: "ack", Num: int64(-i)},
			State: byte(i), Echo: byte(i + 1),
		}
	}
	return out
}

func TestBatchRoundTrip(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 7, 64} {
		for _, group := range []uint64{0, 1, 5, 1 << 40} {
			msgs := batchMsgs(n)
			// Mix in a blob so v2 records ride inside the batch.
			msgs[0].B.Blob = []byte("body")
			data, err := AppendBatch(nil, group, msgs)
			if err != nil {
				t.Fatal(err)
			}
			g, got, err := DecodeBatch(nil, data)
			if err != nil {
				t.Fatalf("n=%d group=%d: %v", n, group, err)
			}
			if g != group || len(got) != n {
				t.Fatalf("n=%d group=%d: decoded group %d, %d msgs", n, group, g, len(got))
			}
			for i := range got {
				if !got[i].Equal(msgs[i]) {
					t.Fatalf("msg %d: got %v, want %v", i, got[i], msgs[i])
				}
			}
		}
	}
}

// TestBatchSingleRecordCompat pins the cross-version contract the
// batch=1 transport path relies on: a one-record batch for group 0 is
// byte-identical to the plain v1/v2 frame, so a batch=1 sender
// interoperates with a wire-v2 peer; any other (count, group) pair
// produces a v3 frame.
func TestBatchSingleRecordCompat(t *testing.T) {
	t.Parallel()
	m := core.Message{Instance: "pif", Kind: "PIF", B: core.Payload{Tag: "m", Num: 7}}
	plain, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := AppendBatch(nil, 0, []core.Message{m})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, batched) {
		t.Fatalf("single-record group-0 batch = %x, want bare frame %x", batched, plain)
	}
	// The same message carrying a blob must stay byte-identical to its
	// bare v2 frame too.
	mb := m
	mb.B.Blob = []byte{1, 2, 3}
	plainB, err := Encode(mb)
	if err != nil {
		t.Fatal(err)
	}
	batchedB, err := AppendBatch(nil, 0, []core.Message{mb})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainB, batchedB) {
		t.Fatalf("single v2 record batch = %x, want bare frame %x", batchedB, plainB)
	}
	// A nonzero group forces the v3 frame even for one record: the group
	// id must travel.
	grouped, err := AppendBatch(nil, 3, []core.Message{m})
	if err != nil {
		t.Fatal(err)
	}
	if grouped[2] != Version3 {
		t.Fatalf("group-3 single batch encoded as version %d, want 3", grouped[2])
	}
	g, got, err := DecodeBatch(nil, grouped)
	if err != nil || g != 3 || len(got) != 1 || !got[0].Equal(m) {
		t.Fatalf("group-3 decode: g=%d msgs=%v err=%v", g, got, err)
	}
}

// TestDecodeBatchAcceptsLegacyFrames pins v1/v2 cross-version decode:
// the batched receive path must keep accepting frames from pre-v3
// senders, as group 0 singletons.
func TestDecodeBatchAcceptsLegacyFrames(t *testing.T) {
	t.Parallel()
	v1 := core.Message{Instance: "pif", Kind: "PIF", B: core.Payload{Tag: "m", Num: 1}}
	v2 := core.Message{Instance: "typed/pif", Kind: "PIF", B: core.Payload{Blob: []byte("x")}}
	for _, m := range []core.Message{v1, v2} {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		g, got, err := DecodeBatch(nil, data)
		if err != nil || g != 0 || len(got) != 1 || !got[0].Equal(m) {
			t.Fatalf("legacy frame: g=%d msgs=%v err=%v", g, got, err)
		}
	}
}

// TestBatchBuilderReuse pins the zero-alloc contract of the batching
// hot path: once grown, a reused builder and frame buffer accumulate
// and render without allocating. Not parallel: AllocsPerRun counts the
// whole process's allocations, a sibling test's too.
func TestBatchBuilderReuse(t *testing.T) {
	msgs := batchMsgs(16)
	var b BatchBuilder
	frame := make([]byte, 0, 4096)
	// Warm the buffers.
	b.Reset(1)
	for _, m := range msgs {
		if err := b.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	frame = b.AppendFrame(frame[:0])
	want := append([]byte(nil), frame...)
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset(1)
		for _, m := range msgs {
			if err := b.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		frame = b.AppendFrame(frame[:0])
	})
	if allocs > 0 {
		t.Fatalf("warm builder allocated %.0f times per batch", allocs)
	}
	if !bytes.Equal(frame, want) {
		t.Fatal("reused builder produced different bytes")
	}
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	t.Parallel()
	good, err := AppendBatch(nil, 2, batchMsgs(3))
	if err != nil {
		t.Fatal(err)
	}
	trailing := append(append([]byte(nil), good...), 0xFF)
	truncated := good[:len(good)-1]
	zeroCount := []byte{magic0, magic1, Version3, 0, 0}
	hugeCount := binary.AppendUvarint([]byte{magic0, magic1, Version3, 0}, MaxBatch+1)
	zeroRecLen := []byte{magic0, magic1, Version3, 0, 1, 0}
	// A v3 record nested inside a v3 frame must be rejected by the
	// record's own Decode (batches do not nest).
	nested := []byte{magic0, magic1, Version3, 0, 1}
	nested = binary.AppendUvarint(nested, uint64(len(good)))
	nested = append(nested, good...)
	cases := map[string][]byte{
		"trailing bytes": trailing,
		"truncated":      truncated,
		"zero count":     zeroCount,
		"huge count":     hugeCount,
		"zero rec len":   zeroRecLen,
		"nested batch":   nested,
		"empty":          {},
		"bad magic":      {0, 0, Version3, 0, 1, 1, 0},
	}
	for name, data := range cases {
		if _, _, err := DecodeBatch(nil, data); err == nil {
			t.Errorf("%s: accepted malformed batch", name)
		}
	}
}

func TestBatchBuilderLimits(t *testing.T) {
	t.Parallel()
	var b BatchBuilder
	b.Reset(0)
	if err := b.Add(core.Message{Instance: string(make([]byte, MaxStringLen+1))}); err == nil {
		t.Fatal("oversized record accepted")
	}
	if b.Count() != 0 {
		t.Fatal("failed Add changed the builder")
	}
	m := core.Message{Instance: "x"}
	for i := 0; i < MaxBatch; i++ {
		if err := b.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Add(m); !errors.Is(err, ErrBatch) {
		t.Fatalf("record %d accepted beyond MaxBatch: %v", MaxBatch+1, err)
	}
	if _, _, err := DecodeBatch(nil, b.AppendFrame(nil)); err != nil {
		t.Fatalf("full batch does not decode: %v", err)
	}
}

func TestDecodeBatchRandomBytesNeverPanics(t *testing.T) {
	t.Parallel()
	f := func(data []byte) bool {
		_, _, _ = DecodeBatch(nil, data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBatchEncode16(b *testing.B) {
	msgs := batchMsgs(16)
	var bb BatchBuilder
	frame := make([]byte, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Reset(1)
		for _, m := range msgs {
			if err := bb.Add(m); err != nil {
				b.Fatal(err)
			}
		}
		frame = bb.AppendFrame(frame[:0])
	}
	_ = frame
}

func BenchmarkBatchDecode16(b *testing.B) {
	data, err := AppendBatch(nil, 1, batchMsgs(16))
	if err != nil {
		b.Fatal(err)
	}
	scratch := make([]core.Message, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := DecodeBatch(scratch[:0], data)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out[:0]
	}
}
