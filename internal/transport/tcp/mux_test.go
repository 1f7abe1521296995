package tcp

import (
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// The window and mux behaviours are the engine's; linktest holds their
// tests once, and this file and window_test.go run them over TCP
// connections (with a short redial backoff, so the mesh is up at once).
var suite = linktest.Link{
	NewMux: func(n int, opts ...engine.Option) (*engine.Mux, error) {
		return NewMux(n, append(opts, WithDialBackoff(time.Millisecond, 50*time.Millisecond))...)
	},
	NewRawPeer: newRawPeer,
}

// Not parallel: concurrent clusters share the loopback path.

func TestTCPMuxHostsIndependentClusters(t *testing.T) { linktest.MuxHostsIndependentClusters(t, suite) }
func TestTCPMuxFaultIsolation(t *testing.T)           { linktest.MuxIsolation(t, suite, nil) }
func TestTCPMuxClusterCloseDetaches(t *testing.T)     { linktest.MuxClusterCloseDetaches(t, suite) }
func TestTCPIdleIsSilent(t *testing.T)                { linktest.IdleIsSilent(t, suite) }

func TestTCPMuxRejectsNodeLevelAttachOptions(t *testing.T) {
	t.Parallel()
	linktest.MuxRejectsNodeLevelAttachOptions(t, suite)
	m, err := NewMux(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stacks, _ := linktest.PIFStacks(2)
	if _, err := m.Attach(stacks, WithDialBackoff(time.Millisecond, time.Second)); err == nil {
		t.Fatal("WithDialBackoff accepted per attached cluster")
	}
}
