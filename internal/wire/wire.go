// Package wire encodes protocol messages for transmission over real
// networks (the UDP and TCP transports) and for size accounting in
// the benchmarks.
//
// The format is deliberately simple and self-delimiting:
//
//	magic   [2]byte  0x53 0x4e ("SN")
//	version byte     1 or 2
//	state   byte
//	echo    byte
//	instance, kind, bTag, fTag: varint length + bytes
//	bNum, fNum: 8-byte little-endian two's complement
//	bBlob, fBlob (version 2 only): uvarint length + bytes,
//	    appended immediately after the corresponding num
//
// Version 1 is the legacy blob-free frame. Version 2 carries the opaque
// payload bodies of the typed application API. Encode emits the smallest
// version that represents the message — a blob-free message still
// produces a byte-identical v1 datagram, so mixed-revision deployments
// interoperate for legacy traffic — and Decode accepts both versions,
// decoding v1 datagrams to empty-blob messages.
//
// Decoding is total: any byte slice either decodes to a well-formed
// Message or returns an error — a malformed datagram can therefore be
// dropped at the transport boundary, which in the model is simply message
// loss (the protocols tolerate it by construction).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/snapstab/snapstab/internal/core"
)

// Format constants.
const (
	magic0, magic1 = 0x53, 0x4e
	// Version1 is the legacy blob-free frame format.
	Version1 = 1
	// Version2 adds a uvarint-length opaque blob after each payload's num.
	Version2 = 2
	// MaxStringLen bounds the variable-length string fields; longer
	// strings are rejected on both paths.
	MaxStringLen = 255
	// MaxBlobLen bounds each payload body (the authoritative constant
	// lives in core so the corruption policy can honor it). Two bodies
	// plus the string fields must fit one UDP datagram (65507 bytes of
	// payload), with generous headroom.
	MaxBlobLen = core.MaxBlobLen
)

// Errors returned by Decode.
var (
	ErrBadMagic  = errors.New("wire: bad magic")
	ErrBadLength = errors.New("wire: truncated or oversized message")
	ErrVersion   = errors.New("wire: unsupported version")
)

// Encode serializes m. It returns an error if a string field exceeds
// MaxStringLen or a blob exceeds MaxBlobLen.
func Encode(m core.Message) ([]byte, error) {
	n, err := RecordSize(m)
	if err != nil {
		return nil, err
	}
	return AppendEncode(make([]byte, 0, n), m)
}

// RecordSize returns the exact length of m's Encode frame — the record a
// batch or link frame carries — or the error Encode would return. It is
// the engine's admission check: a message it accepts always renders.
func RecordSize(m core.Message) (int, error) {
	for _, s := range []string{m.Instance, m.Kind, m.B.Tag, m.F.Tag} {
		if len(s) > MaxStringLen {
			return 0, fmt.Errorf("wire: field %q exceeds %d bytes", s[:16]+"...", MaxStringLen)
		}
	}
	if len(m.B.Blob) > MaxBlobLen || len(m.F.Blob) > MaxBlobLen {
		return 0, fmt.Errorf("wire: blob of %d/%d bytes exceeds %d",
			len(m.B.Blob), len(m.F.Blob), MaxBlobLen)
	}
	// Magic, version, state, echo; four length-prefixed strings; two nums.
	n := 5 + 4 + len(m.Instance) + len(m.Kind) + len(m.B.Tag) + len(m.F.Tag) + 16
	if len(m.B.Blob) > 0 || len(m.F.Blob) > 0 {
		for _, b := range [2][]byte{m.B.Blob, m.F.Blob} {
			n += max(1, (bits.Len(uint(len(b)))+6)/7) + len(b) // uvarint length, body
		}
	}
	return n, nil
}

// AppendEncode serializes m into dst and returns the extended slice,
// reusing dst's capacity, so steady-state rendering into a reused buffer
// performs no heap allocation.
func AppendEncode(dst []byte, m core.Message) ([]byte, error) {
	if _, err := RecordSize(m); err != nil {
		return nil, err
	}
	return appendRecord(dst, m), nil
}

// appendRecord renders m, which RecordSize accepted, into dst.
func appendRecord(dst []byte, m core.Message) []byte {
	version := byte(Version1)
	if len(m.B.Blob) > 0 || len(m.F.Blob) > 0 {
		version = Version2
	}
	buf := append(dst, magic0, magic1, version, m.State, m.Echo)
	appendStr := func(s string) {
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	appendBlob := func(b []byte) {
		if version == Version2 {
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			buf = append(buf, b...)
		}
	}
	appendStr(m.Instance)
	appendStr(m.Kind)
	appendStr(m.B.Tag)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.B.Num))
	appendBlob(m.B.Blob)
	appendStr(m.F.Tag)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.F.Num))
	appendBlob(m.F.Blob)
	return buf
}

// Decode parses a datagram produced by Encode (either version).
func Decode(data []byte) (core.Message, error) {
	var m core.Message
	if len(data) < 5 {
		return m, ErrBadLength
	}
	if data[0] != magic0 || data[1] != magic1 {
		return m, ErrBadMagic
	}
	version := data[2]
	if version != Version1 && version != Version2 {
		return m, ErrVersion
	}
	m.State, m.Echo = data[3], data[4]
	rest := data[5:]

	readStr := func() (string, error) {
		if len(rest) < 1 {
			return "", ErrBadLength
		}
		n := int(rest[0])
		if len(rest) < 1+n {
			return "", ErrBadLength
		}
		s := string(rest[1 : 1+n])
		rest = rest[1+n:]
		return s, nil
	}
	readNum := func() (int64, error) {
		if len(rest) < 8 {
			return 0, ErrBadLength
		}
		v := int64(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		return v, nil
	}
	readBlob := func() ([]byte, error) {
		if version == Version1 {
			return nil, nil
		}
		n, used := binary.Uvarint(rest)
		if used <= 0 || n > MaxBlobLen {
			return nil, ErrBadLength
		}
		rest = rest[used:]
		if uint64(len(rest)) < n {
			return nil, ErrBadLength
		}
		var b []byte
		if n > 0 {
			b = append(b, rest[:n]...)
		}
		rest = rest[n:]
		return b, nil
	}

	var err error
	if m.Instance, err = readStr(); err != nil {
		return core.Message{}, err
	}
	if m.Kind, err = readStr(); err != nil {
		return core.Message{}, err
	}
	if m.B.Tag, err = readStr(); err != nil {
		return core.Message{}, err
	}
	if m.B.Num, err = readNum(); err != nil {
		return core.Message{}, err
	}
	if m.B.Blob, err = readBlob(); err != nil {
		return core.Message{}, err
	}
	if m.F.Tag, err = readStr(); err != nil {
		return core.Message{}, err
	}
	if m.F.Num, err = readNum(); err != nil {
		return core.Message{}, err
	}
	if m.F.Blob, err = readBlob(); err != nil {
		return core.Message{}, err
	}
	if len(rest) != 0 {
		return core.Message{}, ErrBadLength
	}
	return m, nil
}
