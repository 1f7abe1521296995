package wire

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"github.com/snapstab/snapstab/internal/core"
)

func TestRoundTrip(t *testing.T) {
	t.Parallel()
	m := core.Message{
		Instance: "me/idl/pif",
		Kind:     "PIF",
		B:        core.Payload{Tag: "ASK", Num: -7},
		F:        core.Payload{Tag: "YES", Num: 1 << 40},
		State:    3,
		Echo:     4,
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("round trip: got %v, want %v", got, m)
	}
}

// TestAppendEncodeReusesBuffer pins the zero-alloc contract of the hot
// send path: encoding into a pre-grown scratch buffer must produce the
// same bytes as Encode without allocating. Not parallel: AllocsPerRun
// counts the whole process's allocations, a sibling test's too.
func TestAppendEncodeReusesBuffer(t *testing.T) {
	m := core.Message{
		Instance: "pif", Kind: "PIF",
		B: core.Payload{Tag: "ASK", Num: 12}, F: core.Payload{Tag: "YES", Num: -3},
		State: 1, Echo: 2,
	}
	want, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf, err := AppendEncode(scratch, m)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(want) {
			t.Fatalf("AppendEncode = %x, want %x", buf, want)
		}
	})
	// One allocation per run is the string conversion in the comparison
	// above; AppendEncode itself must not allocate into a sized buffer.
	if allocs > 1 {
		t.Fatalf("AppendEncode allocated %.0f times per run into a sized buffer", allocs)
	}
	// Appending after a prefix must keep the prefix intact.
	prefixed, err := AppendEncode([]byte("hdr"), m)
	if err != nil {
		t.Fatal(err)
	}
	if string(prefixed[:3]) != "hdr" || string(prefixed[3:]) != string(want) {
		t.Fatal("AppendEncode clobbered the destination prefix")
	}
}

func TestRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(inst, kind, bTag, fTag string, bNum, fNum int64, state, echo uint8) bool {
		m := core.Message{
			Instance: inst, Kind: kind,
			B:     core.Payload{Tag: bTag, Num: bNum},
			F:     core.Payload{Tag: fTag, Num: fNum},
			State: state, Echo: echo,
		}
		data, err := Encode(m)
		if err != nil {
			// Over-length strings are the only legal encode error.
			return len(inst) > MaxStringLen || len(kind) > MaxStringLen ||
				len(bTag) > MaxStringLen || len(fTag) > MaxStringLen
		}
		got, err := Decode(data)
		return err == nil && got.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	t.Parallel()
	cases := map[string][]byte{
		"empty":     {},
		"short":     {magic0, magic1},
		"bad magic": {0, 0, Version1, 0, 0, 0, 0, 0},
		"truncated": {magic0, magic1, Version1, 0, 0, 5, 'a'},
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode succeeded on malformed input", name)
		}
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	t.Parallel()
	data, err := Encode(core.Message{Instance: "x", Kind: "PIF"})
	if err != nil {
		t.Fatal(err)
	}
	data[2] = 99
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	t.Parallel()
	data, err := Encode(core.Message{Instance: "x", Kind: "PIF"})
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, 0xFF)
	if _, err := Decode(data); !errors.Is(err, ErrBadLength) {
		t.Fatalf("got %v, want ErrBadLength", err)
	}
}

func TestEncodeRejectsOversizedStrings(t *testing.T) {
	t.Parallel()
	m := core.Message{Instance: strings.Repeat("x", MaxStringLen+1)}
	if _, err := Encode(m); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	t.Parallel()
	f := func(data []byte) bool {
		_, _ = Decode(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizeReasonable(t *testing.T) {
	t.Parallel()
	data, err := Encode(core.Message{Instance: "pif", Kind: "PIF", State: 3, Echo: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64 {
		t.Fatalf("minimal message encodes to %d bytes; format bloated", len(data))
	}
}

func BenchmarkEncode(b *testing.B) {
	m := core.Message{Instance: "me/idl/pif", Kind: "PIF", B: core.Payload{Tag: "ASK"}, State: 3}
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	m := core.Message{Instance: "me/idl/pif", Kind: "PIF", B: core.Payload{Tag: "ASK"}, State: 3}
	data, err := Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeVersionSelection pins the upgrade-path contract: blob-free
// messages still encode as byte-identical version-1 datagrams (a
// pre-blob decoder keeps accepting legacy traffic), while any carried
// body switches the frame to version 2.
func TestEncodeVersionSelection(t *testing.T) {
	t.Parallel()
	legacy := core.Message{Instance: "pif", Kind: "PIF", B: core.Payload{Tag: "m", Num: 7}}
	data, err := Encode(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if data[2] != Version1 {
		t.Fatalf("blob-free message encoded as version %d, want 1", data[2])
	}
	withBlob := legacy
	withBlob.F.Blob = []byte{1, 2, 3}
	data2, err := Encode(withBlob)
	if err != nil {
		t.Fatal(err)
	}
	if data2[2] != Version2 {
		t.Fatalf("blob message encoded as version %d, want 2", data2[2])
	}
}

func TestRoundTripBlobs(t *testing.T) {
	t.Parallel()
	blob := make([]byte, 4096)
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	m := core.Message{
		Instance: "typed/pif", Kind: "PIF",
		B:     core.Payload{Tag: "app", Blob: blob},
		F:     core.Payload{Tag: "app", Num: -1, Blob: []byte{}},
		State: 2, Echo: 1,
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("blob round trip: got %v, want %v", got, m)
	}
}

func TestEncodeRejectsOversizedBlob(t *testing.T) {
	t.Parallel()
	m := core.Message{Instance: "pif", B: core.Payload{Blob: make([]byte, MaxBlobLen+1)}}
	if _, err := Encode(m); err == nil {
		t.Fatal("oversized blob accepted")
	}
}

// TestDecodeRejectsOversizedBlobClaim pins totality against a length
// claim exceeding the bound: a v2 frame claiming a blob larger than
// MaxBlobLen must fail with ErrBadLength before any allocation or scan.
func TestDecodeRejectsOversizedBlobClaim(t *testing.T) {
	t.Parallel()
	// Hand-built v2 frame: empty instance/kind/bTag, zero bNum, then a
	// blob-length claim of MaxBlobLen+1 with no bytes behind it.
	frame := []byte{magic0, magic1, Version2, 0, 0, 0, 0, 0}
	frame = append(frame, make([]byte, 8)...) // bNum
	frame = binary.AppendUvarint(frame, uint64(MaxBlobLen+1))
	if _, err := Decode(frame); !errors.Is(err, ErrBadLength) {
		t.Fatalf("got %v, want ErrBadLength", err)
	}
}

func BenchmarkEncodeBlob4K(b *testing.B) {
	m := core.Message{Instance: "typed/pif", Kind: "PIF", B: core.Payload{Tag: "app", Blob: make([]byte, 4096)}}
	buf := make([]byte, 0, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := AppendEncode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

func BenchmarkDecodeBlob4K(b *testing.B) {
	m := core.Message{Instance: "typed/pif", Kind: "PIF", B: core.Payload{Tag: "app", Blob: make([]byte, 4096)}}
	data, err := Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
