//go:build linux && (amd64 || arm64)

package udp

// Raw batch IO: sendmmsg/recvmmsg through the runtime's netpoller. The
// stdlib syscall package carries the syscall numbers on these
// platforms, so no external dependency is needed; everywhere else the
// portable shims apply (mmsg_portable.go).
//
// The RawConn callbacks keep the Go IO discipline intact: the sockets
// are non-blocking, so a syscall that would block returns EAGAIN, the
// callback returns false, and the runtime parks the goroutine on the
// netpoller until readiness or the configured deadline — exactly the
// semantics ReadFromUDPAddrPort/WriteToUDP provide, one datagram batch
// at a time instead of one datagram.

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsgCap is how many datagrams one recvmmsg/sendmmsg call moves at
// most. It also caps the reader's receive slots, which start at one and
// grow with demand (reader).
const mmsgCap = 16

// mmsghdr is struct mmsghdr from socket(7): a Msghdr plus the
// kernel-written datagram length, padded to keep the array stride
// 8-aligned on both amd64 and arm64.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

type mmsgState struct {
	ok     bool
	rc     syscall.RawConn
	sendSA [][]byte // per-peer raw sockaddr bytes, fixed after Start

	// sendmmsg scratch, used under the action mutex only.
	sIov  []syscall.Iovec
	sHdrs []mmsghdr
}

// initTransportIO precomputes raw sockaddrs for every wired peer and
// grabs the raw connection. Any address the socket's family cannot
// express disables the raw path wholesale; the portable loop takes over.
func (s *socket) initTransportIO() {
	rc, err := s.conn.SyscallConn()
	if err != nil {
		return
	}
	la, ok := s.conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		return
	}
	v4sock := la.IP.To4() != nil
	s.mm.sendSA = make([][]byte, len(s.peers))
	for i, p := range s.peers {
		if p == nil {
			continue
		}
		sa := rawSockaddr(p, v4sock)
		if sa == nil {
			return
		}
		s.mm.sendSA[i] = sa
	}
	s.mm.rc = rc
	s.mm.sIov = make([]syscall.Iovec, mmsgCap)
	s.mm.sHdrs = make([]mmsghdr, mmsgCap)
	s.mm.ok = true
}

// rawSockaddr renders addr as the raw sockaddr bytes the socket's
// family expects: AF_INET for a v4 socket, AF_INET6 (v4-mapped when
// needed) for a dual-stack one.
func rawSockaddr(addr *net.UDPAddr, v4sock bool) []byte {
	if v4sock {
		ip4 := addr.IP.To4()
		if ip4 == nil {
			return nil
		}
		var sa syscall.RawSockaddrInet4
		sa.Family = syscall.AF_INET
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(addr.Port>>8), byte(addr.Port)
		copy(sa.Addr[:], ip4)
		buf := make([]byte, syscall.SizeofSockaddrInet4)
		copy(buf, (*(*[syscall.SizeofSockaddrInet4]byte)(unsafe.Pointer(&sa)))[:])
		return buf
	}
	ip16 := addr.IP.To16()
	if ip16 == nil {
		return nil
	}
	var sa syscall.RawSockaddrInet6
	sa.Family = syscall.AF_INET6
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0], p[1] = byte(addr.Port>>8), byte(addr.Port)
	copy(sa.Addr[:], ip16)
	buf := make([]byte, syscall.SizeofSockaddrInet6)
	copy(buf, (*(*[syscall.SizeofSockaddrInet6]byte)(unsafe.Pointer(&sa)))[:])
	return buf
}

// sendFrames writes every rendered frame, packing up to mmsgCap
// datagrams — across destinations — into each sendmmsg call. Callers
// hold the action mutex.
func (s *socket) sendFrames(buf []byte, frames []frameRef) {
	if !s.mm.ok {
		s.sendFramesLoop(buf, frames)
		return
	}
	for start := 0; start < len(frames); {
		k := len(frames) - start
		if k > mmsgCap {
			k = mmsgCap
		}
		for j := 0; j < k; j++ {
			fr := frames[start+j]
			sa := s.mm.sendSA[fr.f.To]
			iov := &s.mm.sIov[j]
			iov.Base = &buf[fr.off]
			iov.SetLen(fr.len)
			h := &s.mm.sHdrs[j].hdr
			h.Name = &sa[0]
			h.Namelen = uint32(len(sa))
			h.Iov = iov
			h.Iovlen = 1
		}
		sent := 0
		var serr syscall.Errno
		werr := s.mm.rc.Write(func(fd uintptr) bool {
			for sent < k {
				v, _, e := syscall.Syscall6(sysSENDMMSG, fd,
					uintptr(unsafe.Pointer(&s.mm.sHdrs[sent])), uintptr(k-sent), 0, 0, 0)
				if e == syscall.EINTR {
					continue
				}
				if e == syscall.EAGAIN {
					return false // park on the netpoller until writable
				}
				if e != 0 {
					serr = e
					return true
				}
				s.cfg.IO.SendSyscalls.Add(1)
				sent += int(v)
			}
			return true
		})
		for j := 0; j < sent; j++ {
			frames[start+j].f.Sent()
		}
		if sent < k {
			for j := sent; j < k; j++ {
				frames[start+j].f.Lost(writeFailed)
			}
			if werr != nil || serr != 0 {
				// Socket-level failure (closed, unreachable): the remaining
				// chunks would fail identically.
				for _, fr := range frames[start+k:] {
					fr.f.Lost(writeFailed)
				}
				return
			}
		}
		start += k
	}
}

// reader pulls datagrams into receive slots of one maximal datagram
// each, one recvmmsg call filling at most every slot it has. It starts
// with one slot and doubles them, up to mmsgCap, whenever a call fills
// all of them: a cold node reads its first datagram without zeroing
// mmsgCap slots first, and a flooded one reaches full batches after four
// full calls. The slots only grow; the kernel buffers what they cannot
// take yet.
type reader struct {
	s     *socket
	ok    bool
	bufs  [][]byte // the slots: len(bufs) datagrams per call
	names []syscall.RawSockaddrAny
	iovs  []syscall.Iovec
	hdrs  []mmsghdr // mmsgCap headers; the first len(bufs) are armed
	pbuf  []byte    // portable fallback
}

func (s *socket) newReader() *reader {
	r := &reader{s: s}
	rc := s.mm.rc
	if rc == nil {
		var err error
		if rc, err = s.conn.SyscallConn(); err != nil {
			r.pbuf = make([]byte, slotBytes)
			return r
		}
		s.mm.rc = rc
	}
	r.ok = true
	r.names = make([]syscall.RawSockaddrAny, mmsgCap)
	r.iovs = make([]syscall.Iovec, mmsgCap)
	r.hdrs = make([]mmsghdr, mmsgCap)
	for i := range r.hdrs {
		h := &r.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
	}
	r.grow(1)
	return r
}

// grow adds slots until there are n.
func (r *reader) grow(n int) {
	for i := len(r.bufs); i < n; i++ {
		buf := make([]byte, slotBytes)
		r.bufs = append(r.bufs, buf)
		r.iovs[i].Base = &buf[0]
		r.iovs[i].SetLen(len(buf))
	}
}

func (r *reader) read(h func([]byte, netip.AddrPort)) {
	if !r.ok {
		r.s.readPortable(r.pbuf, h)
		return
	}
	slots := len(r.bufs)
	for i := 0; i < slots; i++ {
		// The kernel overwrote these on the previous call.
		r.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
		r.hdrs[i].n = 0
	}
	got := 0
	var serr syscall.Errno
	err := r.s.mm.rc.Read(func(fd uintptr) bool {
		for {
			v, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(slots),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch e {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // park until readable or the read deadline
			}
			if e != 0 {
				serr = e
			} else {
				got = int(v)
			}
			return true
		}
	})
	if err != nil || serr != 0 || got == 0 {
		return // deadline or transient error: try again
	}
	r.s.cfg.IO.RecvSyscalls.Add(1)
	r.s.cfg.IO.RecvFrames.Add(int64(got))
	for i := 0; i < got; i++ {
		from, ok := rawToAddrPort(&r.names[i])
		if !ok {
			continue
		}
		h(r.bufs[i][:r.hdrs[i].n], from)
	}
	if got == slots {
		r.grow(min(2*slots, mmsgCap))
	}
}

// rawToAddrPort converts a kernel-written sockaddr to netip form.
func rawToAddrPort(rsa *syscall.RawSockaddrAny) (netip.AddrPort, bool) {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1])), true
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(p[0])<<8|uint16(p[1])), true
	}
	return netip.AddrPort{}, false
}
