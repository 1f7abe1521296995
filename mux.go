package snapstab

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
	tcp "github.com/snapstab/snapstab/internal/transport/tcp"
	udp "github.com/snapstab/snapstab/internal/transport/udp"
)

// Mux is a shared transport layer hosting many clusters over one set of
// sockets: n UDP sockets (UDPMux) or n TCP listeners with one persistent
// connection mesh (TCPMux), where n is the process count every attached
// cluster must share. Each cluster built on Mux.Substrate() attaches as
// a wire group: its messages ride the shared sockets tagged with a
// group id, batched and coalesced together with its siblings' traffic,
// while routing, topology, observers, the fault plane, and the message
// counters stay strictly per cluster.
//
//	mux, err := snapstab.UDPMux(5)
//	defer mux.Close()
//	a := snapstab.NewPIFCluster(5, snapstab.WithSubstrate(mux.Substrate()))
//	b := snapstab.NewPIFCluster(5, snapstab.WithSubstrate(mux.Substrate()))
//
// Closing a cluster detaches its group and leaves the mux — and every
// sibling cluster — running; the mux itself must be closed by its owner
// to release the sockets (which also tears down any still-attached
// clusters).
type Mux struct {
	name     string
	mux      *engine.Mux
	capacity int
}

// newMux builds the shared socket layer with the one node-level option,
// the window, which cannot vary per attached cluster.
func newMux(name string, build func(int, ...engine.Option) (*engine.Mux, error), sub Substrate, nProcs int, opts []Option) (*Mux, error) {
	o := buildOptions(append([]Option{WithSubstrate(sub)}, opts...))
	m, err := build(nProcs, engine.WithCapacity(o.capacity))
	if err != nil {
		return nil, err
	}
	return &Mux{name: name, mux: m, capacity: o.capacity}, nil
}

// UDPMux binds one loopback datagram socket per process and returns a
// mux ready to host clusters. The one cluster option read here is the
// socket-level one, which cannot vary per attached cluster: WithCapacity
// fixes the per-link window (default 2) — every attached cluster's
// machines are built for that bound. Everything else — topology,
// faults, receivers — is given to the cluster constructors instead.
// Socket binding failures are returned, not panicked: the mux is built
// before any cluster exists.
func UDPMux(nProcs int, opts ...Option) (*Mux, error) {
	return newMux("udp-mux", udp.NewMux, UDP(), nProcs, opts)
}

// TCPMux binds one loopback listener per process, dials the full
// connection mesh, and returns a mux ready to host clusters. As with
// UDPMux, the one cluster option read here is WithCapacity; per-cluster
// options belong to the cluster constructors.
func TCPMux(nProcs int, opts ...Option) (*Mux, error) {
	return newMux("tcp-mux", tcp.NewMux, TCP(), nProcs, opts)
}

// N returns the process count every attached cluster must match.
func (m *Mux) N() int { return m.mux.N() }

// Addrs returns every node's bound local address.
func (m *Mux) Addrs() []string { return m.mux.Addrs() }

// Substrate returns the substrate specification that attaches a cluster
// to this mux. Each cluster constructed with it becomes a fresh group on
// the shared sockets; the specification is reusable — build as many
// clusters from it as the application needs. Cluster topology, faults,
// and event hooks apply per attached cluster as on the dedicated
// UDP()/TCP() substrates; WithCapacity does not (the window was fixed
// when the mux was built) and is ignored: the cluster's machines are
// built for the mux's capacity.
func (m *Mux) Substrate() Substrate {
	return Substrate{
		name:          m.name,
		fixedCapacity: m.capacity,
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			if len(stacks) != m.mux.N() {
				return nil, fmt.Errorf("snapstab: %d-process cluster on a %d-process mux", len(stacks), m.mux.N())
			}
			return m.mux.Attach(stacks, groupOptions(o, obs)...)
		},
	}
}

// Close releases the shared sockets, tearing down every still-attached
// cluster. Idempotent.
func (m *Mux) Close() error { return m.mux.Close() }
