package udp

import (
	"testing"

	"github.com/snapstab/snapstab/internal/linktest"
)

// The window and mux behaviours are the engine's; linktest holds their
// tests once, and this file runs them over UDP sockets.
var suite = linktest.Link{Transport: Transport, NewRawPeer: newRawPeer}

// Not parallel, any of them: concurrent clusters share the loopback path
// and the timer wheel; interference slows the handshakes by >20x.

func TestSilentPeerSeesAtMostCMessages(t *testing.T) {
	linktest.SilentPeerSeesAtMostCMessages(t, suite)
}
func TestProbeReopensShutWindow(t *testing.T) { linktest.ProbeReopensShutWindow(t, suite) }
func TestReboxOverflowIsLost(t *testing.T)    { linktest.ReboxOverflowIsLost(t, suite) }
func TestIdleIsSilent(t *testing.T)           { linktest.IdleIsSilent(t, suite) }
func TestOneFramePerSection(t *testing.T)     { linktest.OneFramePerSection(t, suite) }
func TestFrameAtBudget(t *testing.T)          { linktest.FrameAtBudget(t, suite) }
