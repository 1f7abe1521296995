// Package runtime is the in-memory link of the concurrent engine
// (internal/transport/engine), as internal/transport/udp and tcp are its
// socket links: protocol stacks run as real concurrent processes — one
// activation loop per process, the sockets' frames handed from node to
// node as values —
// under the engine's channel semantics, the paper's model: every directed
// (peer, instance) link holds at most c unconsumed messages, a send into
// a full link is lost at the sender, new information leaves on arrival
// and a timer only repeats what a link lost.
//
// Unlike internal/sim, executions here are not reproducible — this
// substrate exists to demonstrate that the protocols run unchanged under
// true concurrency. The deterministic simulator remains the tool for
// experiments and counter-examples. See DESIGN.md §7.
package runtime

import (
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// NewCluster runs one cluster in memory, one node per stack, each
// cluster in an address space of its own; see engine.NewCluster.
func NewCluster(stacks []core.Stack, opts ...engine.Option) (*engine.Cluster, error) {
	return engine.NewCluster(engine.Memory(), stacks, opts...)
}
