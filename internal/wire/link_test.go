package wire

import (
	"errors"
	"testing"

	"github.com/snapstab/snapstab/internal/core"
)

func TestLinkFrameRoundTrip(t *testing.T) {
	msgs := []core.Message{
		{Instance: "pif", Kind: "PIF", State: 3, Echo: 2, B: core.Payload{Tag: "m", Num: 7}},
		{Instance: "idl", Kind: "PIF", B: core.Payload{Blob: []byte("body")}},
		{Instance: "pif", Kind: "PIF", State: 4, Echo: 2},
	}
	links := []LinkHeader{
		{Instance: "pif", Seq: 1 << 33, Ack: 9},
		{Instance: "idl", Seq: 5, Probe: true},
		{Instance: "echo-only", Ack: 77},
	}
	data, err := AppendLinkFrame(nil, 12, links, msgs)
	if err != nil {
		t.Fatal(err)
	}
	group, gotLinks, gotMsgs, err := DecodeLinkFrame(nil, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if group != 12 || len(gotLinks) != len(links) || len(gotMsgs) != len(msgs) {
		t.Fatalf("decoded group %d, %d links, %d msgs", group, len(gotLinks), len(gotMsgs))
	}
	for i, m := range gotMsgs {
		if !m.Equal(msgs[i]) {
			t.Fatalf("message %d = %v, want %v", i, m, msgs[i])
		}
	}
	for i, want := range []int{2, 1, 0} {
		links[i].Count = want
		if gotLinks[i] != links[i] {
			t.Fatalf("header %d = %+v, want %+v", i, gotLinks[i], links[i])
		}
	}
	// The batch decoder predates link frames and must not accept one.
	if _, _, err := DecodeBatch(nil, data); !errors.Is(err, ErrVersion) {
		t.Fatalf("DecodeBatch on a v4 frame: %v, want ErrVersion", err)
	}
}

func TestLinkFrameControlOnly(t *testing.T) {
	data, err := AppendLinkFrame(nil, 0, []LinkHeader{{Instance: "pif", Seq: 4, Ack: 4, Probe: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, links, msgs, err := DecodeLinkFrame(nil, nil, data)
	if err != nil || len(msgs) != 0 || len(links) != 1 || !links[0].Probe || links[0].Count != 0 {
		t.Fatalf("control frame decoded as %+v %v (%v)", links, msgs, err)
	}
}

func TestLinkFrameRejections(t *testing.T) {
	m := core.Message{Instance: "pif", Kind: "PIF"}
	good, err := AppendLinkFrame(nil, 0, []LinkHeader{{Instance: "pif", Seq: 1}}, []core.Message{m})
	if err != nil {
		t.Fatal(err)
	}
	v3, err := AppendBatch(nil, 1, []core.Message{m})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := AppendLinkFrame(nil, 0, []LinkHeader{{Instance: "other", Seq: 1}}, []core.Message{m})
	if err != nil {
		t.Fatal(err) // the encoder trusts its caller; the decoder does not
	}
	twice, err := AppendLinkFrame(nil, 0, []LinkHeader{{Instance: "pif"}, {Instance: "pif"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	flagged := append([]byte(nil), good...)
	flagged[5+len("pif")] = 0x82 // unknown flag bits
	cases := map[string][]byte{
		"v3 frame":            v3,
		"bare v1 frame":       bare,
		"record without link": orphan,
		"duplicate link":      twice,
		"unknown flag":        flagged,
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"truncated":           good[:len(good)-1],
		"no links":            {magic0, magic1, Version4, 0, 0, 0},
		"empty":               {},
	}
	for name, data := range cases {
		links, msgs := []LinkHeader{{Instance: "kept"}}, []core.Message{{Instance: "kept"}}
		_, gotLinks, gotMsgs, err := DecodeLinkFrame(links, msgs, data)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if len(gotLinks) != 1 || len(gotMsgs) != 1 {
			t.Errorf("%s: rejection changed the destination slices", name)
		}
	}
	if _, err := AppendLinkFrame(nil, 0, nil, []core.Message{m}); !errors.Is(err, ErrLink) {
		t.Errorf("frame without headers: %v, want ErrLink", err)
	}
	if _, err := AppendLinkFrame(nil, 0, make([]LinkHeader, MaxLinks+1), nil); !errors.Is(err, ErrLink) {
		t.Errorf("too many headers: %v, want ErrLink", err)
	}
}

// TestAppendLinkFrameAllocatesNothing: the links render every frame into
// a reused buffer, so a frame into a buffer with room costs no allocation.
func TestAppendLinkFrameAllocatesNothing(t *testing.T) {
	links := []LinkHeader{{Instance: "pif", Seq: 9, Ack: 8}, {Instance: "typed/pif", Seq: 1 << 40, Probe: true}}
	msgs := []core.Message{
		{Instance: "pif", Kind: "PIF", State: 3, B: core.Payload{Tag: "m", Num: 7}},
		{Instance: "typed/pif", Kind: "PIF", B: core.Payload{Blob: make([]byte, 1024)}, F: core.Payload{Tag: "ack"}},
	}
	buf := make([]byte, 0, MaxDatagram)
	var err error
	if allocs := testing.AllocsPerRun(100, func() {
		buf, err = AppendLinkFrame(buf[:0], 7, links, msgs)
	}); allocs != 0 || err != nil {
		t.Fatalf("AppendLinkFrame: %v allocations per frame (%v), want 0", allocs, err)
	}
}

// FuzzLinkFrame pins totality of the v4 decoder and the round-trip law
// of the framing the windowed transports put on the wire: whatever
// DecodeLinkFrame accepts re-encodes to a frame that decodes to the
// same headers, per-link counts and messages.
func FuzzLinkFrame(f *testing.F) {
	m := core.Message{Instance: "pif", Kind: "PIF", State: 3, Echo: 1, B: core.Payload{Tag: "m", Num: 7}}
	blob := core.Message{Instance: "typed/pif", Kind: "PIF", B: core.Payload{Blob: []byte("hello")}}
	for _, seed := range []struct {
		links []LinkHeader
		msgs  []core.Message
	}{
		{[]LinkHeader{{Instance: "pif", Seq: 1}}, []core.Message{m}},
		{[]LinkHeader{{Instance: "pif", Seq: 9, Ack: 8}, {Instance: "typed/pif", Seq: 1 << 40, Probe: true}}, []core.Message{m, blob, m}},
		{[]LinkHeader{{Instance: "pif", Seq: 4, Ack: 4, Probe: true}}, nil},
	} {
		data, err := AppendLinkFrame(nil, 3, seed.links, seed.msgs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{magic0, magic1, Version4, 0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{magic0, magic1, Version4, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		group, links, msgs, err := DecodeLinkFrame(nil, nil, data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		total := 0
		for _, h := range links {
			total += h.Count
		}
		if total != len(msgs) {
			t.Fatalf("per-link counts sum to %d over %d messages", total, len(msgs))
		}
		re, err := AppendLinkFrame(nil, group, links, msgs)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		g2, links2, msgs2, err := DecodeLinkFrame(nil, nil, re)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if g2 != group || len(links2) != len(links) || len(msgs2) != len(msgs) {
			t.Fatalf("decode/encode/decode diverged: g=%d/%d links=%d/%d msgs=%d/%d",
				group, g2, len(links), len(links2), len(msgs), len(msgs2))
		}
		for i := range links {
			if links2[i] != links[i] {
				t.Fatalf("header %d diverged: %+v vs %+v", i, links[i], links2[i])
			}
		}
		for i := range msgs {
			if !msgs2[i].Equal(msgs[i]) {
				t.Fatalf("record %d diverged: %v vs %v", i, msgs[i], msgs2[i])
			}
		}
	})
}
