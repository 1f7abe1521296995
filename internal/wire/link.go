// Wire version 4: the link frame. It is the v3 batch frame plus one
// header per (group, instance) link the frame says something about —
// the sequence and acknowledgment that let the socket transports
// enforce the channel-capacity bound (internal/window):
//
//	magic   [2]byte  0x53 0x4e ("SN")
//	version byte     4
//	group   uvarint  logical cluster/group id (0 for a cluster on nodes of its own, a mux's clusters 1, 2, …)
//	nlinks  uvarint  number of link headers, 1..MaxLinks
//	nlinks ×:
//	    instance byte len + bytes  the link's protocol instance
//	    flags    byte              bit 0 = probe; other bits must be 0
//	    seq      uvarint           last sequence sent on this link
//	    ack      uvarint           last sequence consumed on the reverse link
//	count   uvarint  number of records, 0..MaxBatch
//	count ×:
//	    len uvarint  record length in bytes (> 0)
//	    rec [len]    one complete v1 or v2 frame (Encode output)
//
// Every record's instance must have a header, headers are unique per
// instance, and the records of one instance are numbered consecutively
// ending at its header's seq, in frame order. A frame with count 0 is a
// control frame: an echo (acknowledgments only) or a probe. Decoding is
// total and all-or-nothing exactly like v3: any malformed byte rejects
// the whole frame, which at the transport boundary is the loss of every
// message and acknowledgment it carried.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
)

const (
	// Version4 is the link frame: a v3 batch preceded by per-link
	// sequence/acknowledgment headers.
	Version4 = 4
	// MaxLinks bounds the link headers one frame may declare, so a
	// hostile count cannot drive a receiver's append loop.
	MaxLinks = 256

	linkProbe = 1 // flags bit 0
)

// ErrLink is returned by DecodeLinkFrame for structurally invalid link
// frames (bad header count or flags, a duplicated instance, a record
// whose instance has no header, trailing bytes).
var ErrLink = errors.New("wire: malformed link frame")

// LinkHeader is the per-link part of a v4 frame.
type LinkHeader struct {
	// Instance names the link within the frame's group.
	Instance string
	// Seq is the last sequence the sender has assigned on the link, the
	// frame's own records included.
	Seq uint64
	// Ack is the last sequence the sender knows consumed on the reverse
	// direction (0 = none).
	Ack uint64
	// Probe asks the receiver to answer with its Ack promptly.
	Probe bool
	// Count is the number of the frame's records that belong to this
	// link. DecodeLinkFrame fills it; the encoders ignore it.
	Count int
}

// checkLinkHeaders reports whether links can head a frame.
func checkLinkHeaders(links []LinkHeader) error {
	if len(links) == 0 || len(links) > MaxLinks {
		return fmt.Errorf("%w: %d link headers", ErrLink, len(links))
	}
	for _, h := range links {
		if len(h.Instance) > MaxStringLen {
			return fmt.Errorf("wire: link instance of %d bytes exceeds %d", len(h.Instance), MaxStringLen)
		}
	}
	return nil
}

// AppendLinkFrame renders msgs (possibly none) as one v4 frame for group
// under links, straight into dst: the one render call of the links, which
// allocates nothing once dst has room. The caller guarantees what the
// decoder checks: one header per distinct record instance. Headers that
// cannot head a frame, more than MaxBatch messages or an unencodable
// message are an error, and dst comes back unchanged.
func AppendLinkFrame(dst []byte, group uint64, links []LinkHeader, msgs []core.Message) ([]byte, error) {
	if err := checkLinkHeaders(links); err != nil {
		return dst, err
	}
	if len(msgs) > MaxBatch {
		return dst, fmt.Errorf("%w: %d records", ErrLink, len(msgs))
	}
	start := len(dst)
	dst = append(dst, magic0, magic1, Version4)
	dst = binary.AppendUvarint(dst, group)
	dst = binary.AppendUvarint(dst, uint64(len(links)))
	for _, h := range links {
		dst = append(dst, byte(len(h.Instance)))
		dst = append(dst, h.Instance...)
		var flags byte
		if h.Probe {
			flags = linkProbe
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, h.Seq)
		dst = binary.AppendUvarint(dst, h.Ack)
	}
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	for _, m := range msgs {
		n, err := RecordSize(m)
		if err != nil {
			return dst[:start], err
		}
		dst = appendRecord(binary.AppendUvarint(dst, uint64(n)), m)
	}
	return dst, nil
}

// DecodeLinkFrame parses a v4 frame, appending its headers to links and
// its messages to msgs (either may be nil; pass reused slices to avoid
// allocation on hot paths). Each returned header's Count says how many
// of the messages belong to it. Any other version is ErrVersion: a
// frame that carries no acknowledgment cannot be held to the capacity
// bound, so the windowed transports do not accept one. On error links
// and msgs are returned unchanged.
func DecodeLinkFrame(links []LinkHeader, msgs []core.Message, data []byte) (uint64, []LinkHeader, []core.Message, error) {
	fail := func(err error) (uint64, []LinkHeader, []core.Message, error) {
		return 0, links, msgs, err
	}
	if len(data) < 3 {
		return fail(ErrBadLength)
	}
	if data[0] != magic0 || data[1] != magic1 {
		return fail(ErrBadMagic)
	}
	if data[2] != Version4 {
		return fail(ErrVersion)
	}
	rest := data[3:]
	group, used := binary.Uvarint(rest)
	if used <= 0 {
		return fail(ErrLink)
	}
	rest = rest[used:]
	nlinks, used := binary.Uvarint(rest)
	if used <= 0 || nlinks == 0 || nlinks > MaxLinks {
		return fail(ErrLink)
	}
	rest = rest[used:]
	outLinks := links
	base := len(links)
	for i := uint64(0); i < nlinks; i++ {
		if len(rest) < 1 || len(rest) < 1+int(rest[0])+1 {
			return fail(ErrLink)
		}
		n := int(rest[0])
		h := LinkHeader{Instance: string(rest[1 : 1+n])}
		flags := rest[1+n]
		rest = rest[2+n:]
		if flags&^linkProbe != 0 {
			return fail(ErrLink)
		}
		h.Probe = flags&linkProbe != 0
		if h.Seq, used = binary.Uvarint(rest); used <= 0 {
			return fail(ErrLink)
		}
		rest = rest[used:]
		if h.Ack, used = binary.Uvarint(rest); used <= 0 {
			return fail(ErrLink)
		}
		rest = rest[used:]
		for _, prev := range outLinks[base:] {
			if prev.Instance == h.Instance {
				return fail(ErrLink)
			}
		}
		outLinks = append(outLinks, h)
	}
	count, used := binary.Uvarint(rest)
	if used <= 0 || count > MaxBatch {
		return fail(ErrLink)
	}
	rest = rest[used:]
	outMsgs := msgs
	for i := uint64(0); i < count; i++ {
		recLen, used := binary.Uvarint(rest)
		if used <= 0 || recLen == 0 || uint64(len(rest)-used) < recLen {
			return fail(ErrLink)
		}
		rec := rest[used : used+int(recLen)]
		rest = rest[used+int(recLen):]
		m, err := Decode(rec)
		if err != nil {
			return fail(err)
		}
		owner := -1
		for j := base; j < len(outLinks); j++ {
			if outLinks[j].Instance == m.Instance {
				owner = j
				break
			}
		}
		if owner < 0 {
			return fail(ErrLink)
		}
		outLinks[owner].Count++
		outMsgs = append(outMsgs, m)
	}
	if len(rest) != 0 {
		return fail(ErrLink)
	}
	return group, outLinks, outMsgs, nil
}
