//go:build !linux || (!amd64 && !arm64)

package udp

import "net/netip"

// Portable batch-IO shims: platforms without the raw
// sendmmsg/recvmmsg path still batch messages into link-frame datagrams —
// the per-message syscall amortization — but move one datagram per
// system call.

type mmsgState struct{}

func (n *Node) initTransportIO() {}

func (n *Node) sendFrames(buf []byte, frames []frameRef) {
	n.sendFramesLoop(buf, frames)
}

type reader struct {
	n   *Node
	buf []byte
}

func (n *Node) newReader() *reader {
	return &reader{n: n, buf: make([]byte, 64*1024)}
}

func (r *reader) read(h func([]byte, netip.AddrPort)) {
	r.n.readPortable(r.buf, h)
}
