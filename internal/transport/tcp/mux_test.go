package tcp

import (
	"testing"

	"github.com/snapstab/snapstab/internal/linktest"
)

// The window and mux behaviours are the engine's; linktest holds their
// tests once, and this file and window_test.go run them over TCP
// connections.
var suite = linktest.Link{Transport: Transport, NewRawPeer: newRawPeer}

// Not parallel: concurrent clusters share the loopback path.

func TestTCPOneLoopPerNode(t *testing.T)              { linktest.OneLoopPerNode(t, suite) }
func TestTCPMuxHostsIndependentClusters(t *testing.T) { linktest.MuxHostsIndependentClusters(t, suite) }
func TestTCPMuxFaultIsolation(t *testing.T)           { linktest.MuxIsolation(t, suite, nil) }
func TestTCPMuxClusterCloseDetaches(t *testing.T)     { linktest.MuxClusterCloseDetaches(t, suite) }
func TestTCPIdleIsSilent(t *testing.T)                { linktest.IdleIsSilent(t, suite) }

func TestTCPMuxRejectsNodeLevelAttachOptions(t *testing.T) {
	t.Parallel()
	linktest.MuxRejectsNodeLevelAttachOptions(t, suite)
}
