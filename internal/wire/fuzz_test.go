package wire

import (
	"bytes"
	"testing"

	"github.com/snapstab/snapstab/internal/core"
)

// FuzzDecode pins totality for both decoders: neither Decode nor
// DecodeBatch may panic, and whenever either accepts a byte slice the
// decoded value must re-encode and decode to the same value
// (decode ∘ encode ∘ decode = decode). Seeds cover all three frame
// versions and every rejection branch; cross-version agreement is
// checked on every input — a v1/v2 frame Decode accepts must decode
// identically through DecodeBatch as a group-0 singleton.
func FuzzDecode(f *testing.F) {
	seeds := []core.Message{
		{},
		{Instance: "pif", Kind: "PIF", B: core.Payload{Tag: "m", Num: 7}, State: 3, Echo: 1},
		{Instance: "me/idl/pif", Kind: "PIF", B: core.Payload{Tag: "ASK", Num: -1}, F: core.Payload{Tag: "YES", Num: 1 << 40}},
		{Instance: "typed/pif", Kind: "PIF", B: core.Payload{Tag: "app", Blob: []byte("hello")}},
		{Instance: "typed/pif", Kind: "PIF", B: core.Payload{Blob: bytes.Repeat([]byte{0xAB}, 4096)}, F: core.Payload{Blob: []byte{0}}},
	}
	for _, m := range seeds {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		batched, err := AppendBatch(nil, 9, []core.Message{m, m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(batched)
	}
	f.Add([]byte{magic0, magic1, Version2, 0, 0})
	f.Add([]byte{magic0, magic1, Version2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{magic0, magic1, Version3, 0, 1, 0})
	f.Add([]byte{magic0, magic1, Version3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err == nil {
			re, err := Encode(m)
			if err != nil {
				t.Fatalf("accepted message %v does not re-encode: %v", m, err)
			}
			m2, err := Decode(re)
			if err != nil {
				t.Fatalf("re-encoded bytes rejected: %v", err)
			}
			if !m2.Equal(m) {
				t.Fatalf("decode/encode/decode diverged: %v vs %v", m, m2)
			}
		}
		group, msgs, berr := DecodeBatch(nil, data)
		if err == nil {
			// Cross-version agreement: anything Decode accepts is a v1/v2
			// frame, which DecodeBatch must accept as a group-0 singleton.
			if berr != nil || group != 0 || len(msgs) != 1 || !msgs[0].Equal(m) {
				t.Fatalf("DecodeBatch disagrees with Decode: g=%d msgs=%v err=%v", group, msgs, berr)
			}
		}
		if berr != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Idempotence: re-encode the accepted batch and decode again.
		re, err := AppendBatch(nil, group, msgs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		g2, msgs2, err := DecodeBatch(nil, re)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if g2 != group || len(msgs2) != len(msgs) {
			t.Fatalf("batch decode/encode/decode diverged: g=%d/%d n=%d/%d", group, g2, len(msgs), len(msgs2))
		}
		for i := range msgs {
			if !msgs2[i].Equal(msgs[i]) {
				t.Fatalf("batch record %d diverged: %v vs %v", i, msgs[i], msgs2[i])
			}
		}
	})
}

// FuzzBatchRoundTrip drives the batch encoder with arbitrary group ids
// and record mixes and pins the exact round-trip law for every batch
// AppendBatch accepts, including the single-record compat collapse.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint64(0), 1, "pif", "PIF", int64(7), []byte(nil))
	f.Add(uint64(3), 5, "typed/pif", "PIF", int64(-1), []byte("body"))
	f.Add(uint64(1)<<40, 64, "me/idl/pif", "x", int64(1<<33), []byte{0xFF})
	f.Fuzz(func(t *testing.T, group uint64, n int, inst, kind string, num int64, blob []byte) {
		if n <= 0 || n > 128 {
			return
		}
		msgs := make([]core.Message, n)
		for i := range msgs {
			msgs[i] = core.Message{
				Instance: inst, Kind: kind,
				B:     core.Payload{Tag: kind, Num: num + int64(i), Blob: blob},
				State: byte(i),
			}
		}
		data, err := AppendBatch(nil, group, msgs)
		if err != nil {
			if len(inst) > MaxStringLen || len(kind) > MaxStringLen || len(blob) > MaxBlobLen {
				return // out of the record format's domain
			}
			t.Fatalf("in-domain batch rejected: %v", err)
		}
		g, got, err := DecodeBatch(nil, data)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if g != group || len(got) != n {
			t.Fatalf("round trip: g=%d/%d n=%d/%d", group, g, n, len(got))
		}
		for i := range got {
			if !got[i].Equal(msgs[i]) {
				t.Fatalf("record %d: got %v, want %v", i, got[i], msgs[i])
			}
		}
		if n == 1 && group == 0 {
			plain, err := Encode(msgs[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain, data) {
				t.Fatalf("group-0 singleton batch not byte-compatible with bare frame")
			}
		}
	})
}

// FuzzRoundTrip drives Encode with arbitrary field values (both
// versions: blob-free inputs produce v1 frames, bodies produce v2) and
// pins the exact round-trip law for everything Encode accepts.
func FuzzRoundTrip(f *testing.F) {
	f.Add("pif", "PIF", "m", int64(7), []byte(nil), "ack", int64(-7), []byte(nil), byte(3), byte(1))
	f.Add("typed/pif", "PIF", "app", int64(0), []byte("body"), "", int64(0), []byte{0xFF, 0x00}, byte(0), byte(255))
	f.Add("", "", "", int64(-1), bytes.Repeat([]byte{1}, 300), "x", int64(1), []byte{}, byte(9), byte(9))
	f.Fuzz(func(t *testing.T, inst, kind, bTag string, bNum int64, bBlob []byte,
		fTag string, fNum int64, fBlob []byte, state, echo byte) {
		m := core.Message{
			Instance: inst, Kind: kind,
			B:     core.Payload{Tag: bTag, Num: bNum, Blob: bBlob},
			F:     core.Payload{Tag: fTag, Num: fNum, Blob: fBlob},
			State: state, Echo: echo,
		}
		data, err := Encode(m)
		size, serr := RecordSize(m)
		if (err == nil) != (serr == nil) {
			t.Fatalf("Encode says %v, RecordSize says %v", err, serr)
		}
		if err != nil {
			if len(inst) > MaxStringLen || len(kind) > MaxStringLen ||
				len(bTag) > MaxStringLen || len(fTag) > MaxStringLen ||
				len(bBlob) > MaxBlobLen || len(fBlob) > MaxBlobLen {
				return // out of the format's domain: rejection is the contract
			}
			t.Fatalf("in-domain message rejected: %v", err)
		}
		if size != len(data) {
			t.Fatalf("RecordSize = %d, the record is %d bytes", size, len(data))
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !got.Equal(m) {
			t.Fatalf("round trip: got %v, want %v", got, m)
		}
	})
}
