//go:build linux && (amd64 || arm64)

package udp

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// readerUnderTest binds a bare socket and a reader on it, with no
// receive loop, and returns a sender that fires datagrams at it from a
// second socket. Loopback hands a datagram to the receiving socket's
// queue before sendto returns, so every datagram sent is there for the
// next read call.
func readerUnderTest(t *testing.T) (s *socket, r *reader, send func(...[]byte)) {
	t.Helper()
	l, err := bind(engine.LinkConfig{Listen: "127.0.0.1:0", Peers: 2,
		Capacity: engine.DefaultCapacity, IO: new(engine.IOCounters)})
	if err != nil {
		t.Fatal(err)
	}
	s = l.(*socket)
	t.Cleanup(s.Stop)
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	if r = s.newReader(); !r.ok {
		t.Fatal("no raw recvmmsg path on this platform")
	}
	to := s.conn.LocalAddr().(*net.UDPAddr)
	send = func(datagrams ...[]byte) {
		t.Helper()
		for _, d := range datagrams {
			if _, err := src.WriteToUDP(d, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, r, send
}

// readOnce makes one read call and returns copies of what it handed over.
func readOnce(s *socket, r *reader) [][]byte {
	_ = s.conn.SetReadDeadline(time.Now().Add(time.Second))
	var got [][]byte
	r.read(func(b []byte, _ netip.AddrPort) { got = append(got, bytes.Clone(b)) })
	return got
}

// small returns k distinct small datagrams, numbered from first.
func small(first, k int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = binary.BigEndian.AppendUint32(nil, uint32(first+i))
	}
	return out
}

// TestReaderGrowsWhenACallFillsEverySlot: a new reader has one slot;
// each call that fills every slot doubles them up to mmsgCap and no
// further, and a call that leaves a slot empty grows nothing.
func TestReaderGrowsWhenACallFillsEverySlot(t *testing.T) {
	s, r, send := readerUnderTest(t)
	if n := len(r.bufs); n != 1 {
		t.Fatalf("a new reader has %d slots, want 1", n)
	}
	for i, step := range []struct{ send, got, slots int }{
		{1, 1, 2},
		{1, 1, 2}, // partial
		{2, 2, 4},
		{3, 3, 4}, // partial
		{4, 4, 8},
		{7, 7, 8}, // partial
		{8, 8, 16},
		{15, 15, 16}, // partial
		{16, 16, 16}, // full at the cap
		{mmsgCap + 1, 16, 16},
		{0, 1, 16}, // the datagram the last call had no slot for
	} {
		send(small(0, step.send)...)
		if got := len(readOnce(s, r)); got != step.got {
			t.Fatalf("step %d: a call handed over %d datagrams, want %d", i, got, step.got)
		}
		if n := len(r.bufs); n != step.slots {
			t.Fatalf("step %d: %d slots after a call that read %d, want %d", i, n, step.got, step.slots)
		}
	}
}

// TestReaderTakesMaximalDatagramsWhole: a wire.MaxDatagram-byte datagram
// arrives byte for byte in a new reader's only slot and in the last
// slot of a grown one.
func TestReaderTakesMaximalDatagramsWhole(t *testing.T) {
	s, r, send := readerUnderTest(t)
	big := make([]byte, wire.MaxDatagram)
	for i := range big {
		big[i] = byte(i * 7)
	}
	send(big)
	if got := readOnce(s, r); len(got) != 1 || !bytes.Equal(got[0], big) {
		t.Fatalf("one slot: a maximal datagram did not arrive whole (%d datagrams)", len(got))
	}

	r.grow(mmsgCap)
	send(append(small(0, mmsgCap-1), big)...)
	got := readOnce(s, r)
	if len(got) != mmsgCap {
		t.Fatalf("%d slots: a call handed over %d datagrams, want %d", mmsgCap, len(got), mmsgCap)
	}
	if last := got[mmsgCap-1]; !bytes.Equal(last, big) {
		t.Fatalf("%d slots: the maximal datagram arrived as %d bytes, want %d whole", mmsgCap, len(last), len(big))
	}
}

// TestReaderBurstArrivesOnceInBatches: a burst of 40 small datagrams on
// a new reader is handed over exactly once each, in fewer calls than
// datagrams.
func TestReaderBurstArrivesOnceInBatches(t *testing.T) {
	const burst = 40
	s, r, send := readerUnderTest(t)
	send(small(0, burst)...)
	seen := make([]int, burst)
	for total, calls := 0, 0; total < burst; calls++ {
		if calls == burst {
			t.Fatalf("%d calls handed over %d of %d datagrams", calls, total, burst)
		}
		for _, d := range readOnce(s, r) {
			seen[binary.BigEndian.Uint32(d)]++
			total++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("datagram %d handed over %d times, want once", i, n)
		}
	}
	if frames := s.cfg.IO.RecvFrames.Load(); frames != burst {
		t.Errorf("RecvFrames = %d, want %d", frames, burst)
	}
	if calls := s.cfg.IO.RecvSyscalls.Load(); calls >= burst {
		t.Errorf("RecvSyscalls = %d for %d datagrams, want fewer", calls, burst)
	}
}
