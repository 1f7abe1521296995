// Wire version 3: the batch frame. One datagram (or one TCP frame)
// carries a counted sequence of v1/v2 records plus a uvarint group id,
// so the socket transports can amortize one syscall over many protocol
// messages and multiplex many logical clusters over one socket pair:
//
//	magic   [2]byte  0x53 0x4e ("SN")
//	version byte     3
//	group   uvarint  logical cluster/group id (0 for a cluster on nodes of its own, a mux's clusters 1, 2, …)
//	count   uvarint  number of records, 1..MaxBatch
//	records count ×:
//	    len uvarint  record length in bytes (> 0)
//	    rec [len]    one complete v1 or v2 frame (Encode output)
//
// Records are full Encode frames — magic and version included — so a
// record decodes with the exact single-message Decode and the totality
// argument composes: any malformed byte anywhere rejects the whole
// batch, which at the transport boundary is simply the loss of every
// message it carried (the model's channels may lose messages, and the
// fault plane acts per logical message after decoding, never per
// datagram). A v3 record inside a v3 frame is rejected: batches do not
// nest.
//
// Within v1–v3 every encoder emits the smallest format that represents
// its traffic: a batch of one record for group 0 is emitted as the bare
// record — byte-identical to what Encode produces — and DecodeBatch
// accepts all three versions (v1/v2 frames decode as group 0, count 1).
// The socket transports no longer ship v3: they frame the same batch
// under per-link acknowledgment headers as wire v4 (link.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
)

const (
	// Version3 is the batch frame: uvarint group id, uvarint record
	// count, then length-prefixed v1/v2 records.
	Version3 = 3
	// MaxBatch bounds the record count a batch frame may declare; the
	// bound exists so a hostile count cannot drive a receiver's append
	// loop, and is far above what fits a 64KiB datagram of minimal
	// records anyway.
	MaxBatch = 1024
	// MaxDatagram is the largest frame the UDP transport can put on the
	// wire (the IPv4 UDP payload ceiling); senders flush below it.
	MaxDatagram = 65507
)

// ErrBatch is returned by DecodeBatch for structurally invalid batch
// frames (bad count, bad record length, trailing bytes).
var ErrBatch = errors.New("wire: malformed batch frame")

// batchHeadroom is the worst-case header overhead of AppendFrame: magic
// and version, a maximal uvarint group, and a maximal uvarint count.
const batchHeadroom = 3 + binary.MaxVarintLen64 + binary.MaxVarintLen64

// BatchBuilder accumulates records bound for one (destination, group)
// and renders them as a single v3 frame. The zero value is unusable;
// call Reset first. A builder reused across frames performs no
// allocation once the record buffer has grown to its working size. (The
// transports render v4 frames with AppendLinkFrame instead.)
type BatchBuilder struct {
	group uint64
	count int
	recs  []byte // uvarint-length-prefixed Encode frames, back to back
}

// Reset empties the builder and retargets it at group, keeping the
// record buffer's capacity.
func (b *BatchBuilder) Reset(group uint64) {
	b.group = group
	b.count = 0
	b.recs = b.recs[:0]
}

// Group returns the group id the builder targets.
func (b *BatchBuilder) Group() uint64 { return b.group }

// Count returns the number of records accumulated so far.
func (b *BatchBuilder) Count() int { return b.count }

// Size returns an upper bound on the frame AppendFrame would produce
// now — the accumulated records plus worst-case header overhead.
func (b *BatchBuilder) Size() int { return batchHeadroom + len(b.recs) }

// Add appends one message as a record. It returns the single-message
// encoding errors (oversized strings or blobs) and ErrBatch when the
// builder already holds MaxBatch records; on error the builder is
// unchanged.
func (b *BatchBuilder) Add(m core.Message) error {
	if b.count >= MaxBatch {
		return fmt.Errorf("%w: %d records", ErrBatch, b.count)
	}
	n, err := RecordSize(m)
	if err != nil {
		return err
	}
	b.recs = appendRecord(binary.AppendUvarint(b.recs, uint64(n)), m)
	b.count++
	return nil
}

// AppendFrame renders the accumulated batch into dst and returns the
// extended slice, then leaves the builder ready for reuse via Reset.
// A batch of one record for group 0 is emitted as the bare record —
// byte-identical to the v1/v2 frame a batch-free sender produces — so
// batch=1 senders interoperate with wire-v2 peers. It panics on an
// empty builder: flushing nothing is a transport bug, not a runtime
// condition.
func (b *BatchBuilder) AppendFrame(dst []byte) []byte {
	if b.count == 0 {
		panic("wire: AppendFrame on empty batch")
	}
	if b.count == 1 && b.group == 0 {
		_, n := binary.Uvarint(b.recs)
		return append(dst, b.recs[n:]...)
	}
	dst = append(dst, magic0, magic1, Version3)
	dst = binary.AppendUvarint(dst, b.group)
	dst = binary.AppendUvarint(dst, uint64(b.count))
	return append(dst, b.recs...)
}

// AppendBatch renders msgs as one frame for group into dst: the
// convenience form of BatchBuilder for callers that already hold the
// whole batch (the TCP transport's group framing, tests).
func AppendBatch(dst []byte, group uint64, msgs []core.Message) ([]byte, error) {
	if len(msgs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBatch)
	}
	var b BatchBuilder
	b.Reset(group)
	for _, m := range msgs {
		if err := b.Add(m); err != nil {
			return nil, err
		}
	}
	return b.AppendFrame(dst), nil
}

// DecodeBatch parses a frame of any version, appending the decoded
// messages to dst (which may be nil; pass a reused slice to avoid
// allocation on hot paths). v1 and v2 frames decode as group 0 with a
// single message; v3 frames yield their group id and every record.
// Decoding is total and all-or-nothing: any malformed byte rejects the
// whole frame with dst unchanged — at the transport boundary that is
// the loss of every carried message, which the protocols tolerate by
// construction.
func DecodeBatch(dst []core.Message, data []byte) (uint64, []core.Message, error) {
	if len(data) < 3 {
		return 0, dst, ErrBadLength
	}
	if data[0] != magic0 || data[1] != magic1 {
		return 0, dst, ErrBadMagic
	}
	if data[2] != Version3 {
		m, err := Decode(data)
		if err != nil {
			return 0, dst, err
		}
		return 0, append(dst, m), nil
	}
	rest := data[3:]
	group, used := binary.Uvarint(rest)
	if used <= 0 {
		return 0, dst, ErrBatch
	}
	rest = rest[used:]
	count, used := binary.Uvarint(rest)
	if used <= 0 || count == 0 || count > MaxBatch {
		return 0, dst, ErrBatch
	}
	rest = rest[used:]
	out := dst
	for i := uint64(0); i < count; i++ {
		recLen, used := binary.Uvarint(rest)
		if used <= 0 || recLen == 0 || uint64(len(rest)-used) < recLen {
			return 0, dst, ErrBatch
		}
		rec := rest[used : used+int(recLen)]
		rest = rest[used+int(recLen):]
		// Decode rejects version 3, so batches cannot nest.
		m, err := Decode(rec)
		if err != nil {
			return 0, dst, err
		}
		out = append(out, m)
	}
	if len(rest) != 0 {
		return 0, dst, ErrBatch
	}
	return group, out, nil
}
