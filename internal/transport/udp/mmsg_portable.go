//go:build !linux || (!amd64 && !arm64)

package udp

import "net/netip"

// Portable batch-IO shims: platforms without the raw
// sendmmsg/recvmmsg path still batch messages into link-frame datagrams —
// the per-message syscall amortization — but move one datagram per
// system call.

type mmsgState struct{}

func (s *socket) initTransportIO() {}

func (s *socket) sendFrames(buf []byte, frames []frameRef) {
	s.sendFramesLoop(buf, frames)
}

type reader struct {
	s   *socket
	buf []byte
}

func (s *socket) newReader() *reader {
	return &reader{s: s, buf: make([]byte, slotBytes)}
}

func (r *reader) read(h func([]byte, netip.AddrPort)) {
	r.s.readPortable(r.buf, h)
}
