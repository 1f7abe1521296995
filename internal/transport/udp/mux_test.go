package udp

import (
	"testing"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

func TestOneLoopPerNode(t *testing.T)              { linktest.OneLoopPerNode(t, suite) }
func TestMuxHostsIndependentClusters(t *testing.T) { linktest.MuxHostsIndependentClusters(t, suite) }
func TestMuxClusterCloseDetaches(t *testing.T)     { linktest.MuxClusterCloseDetaches(t, suite) }

func TestMuxRejectsNodeLevelAttachOptions(t *testing.T) {
	t.Parallel()
	linktest.MuxRejectsNodeLevelAttachOptions(t, suite)
}

// TestMuxIsolation adds the datagram side of the crossing test: a
// corrupted or stray datagram is dropped before it can cross from one
// group into another (the group id routes it, the per-record decode
// rejects it). Hand-built garbage aimed at cluster A's group id (or at
// no group at all) must never surface in the clean cluster B.
func TestMuxIsolation(t *testing.T) {
	// Keep the sockets the mux binds, to fire garbage from a known peer.
	var socks []*socket
	capture := engine.Transport{FaultSalt: Transport.FaultSalt, Bind: func(cfg engine.LinkConfig) (engine.Link, error) {
		l, err := bind(cfg)
		if err == nil {
			socks = append(socks, l.(*socket))
		}
		return l, err
	}}
	l := suite
	l.Transport = capture
	linktest.MuxIsolation(t, l, func(m *engine.Mux, gidA uint64) {
		// Garbage pressure: corrupt link frames for A's group, an unknown
		// group, and raw noise, all fired at node 0 from node 1's address —
		// i.e. from a known peer, past the sender check.
		frame := func(gid uint64) []byte {
			data, err := wire.AppendLinkFrame(nil, gid, []wire.LinkHeader{{Instance: "pif", Seq: 1}},
				[]core.Message{{Instance: "pif", Kind: "PIF"}})
			if err != nil {
				t.Fatal(err)
			}
			//lint:ignore poolalias rendered into a fresh slice (nil dst)
			return data
		}
		corrupt, stray := frame(gidA), frame(9999)
		corrupt[len(corrupt)-1] ^= 0xFF
		noise := [][]byte{corrupt, stray, {0x53, 0x4e, 4, 0xFF}, {1, 2, 3}}
		target := mustUDPAddr(t, m.Addrs()[0])
		for i := 0; i < 20; i++ {
			for _, d := range noise {
				// Sent from node 1's own socket so the sender table accepts the
				// source address; the frame contents must still be quarantined.
				if _, err := socks[1].conn.WriteToUDP(d, target); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
