package snapstab

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
)

// Topology is the communication graph a cluster runs over: which process
// pairs share a channel. The zero value means "no explicit topology",
// which every cluster treats as the paper's fully-connected network —
// and treats byte-identically to an explicit Complete(n): executions,
// corruption streams, and statistics do not change when the complete
// graph is spelled out.
//
// Over a sparser graph all three substrates route strictly along edges:
// the simulator has no channel between non-neighbours, the runtime wires
// no link, and a UDP node never learns a non-neighbour's address.
type Topology struct {
	t *core.Topology
}

// topologySalt derives the generator streams of the seeded topology
// constructors from the caller's seed, keeping them independent of every
// other consumer of the same seed (the substrates use their own salts).
const topologySalt = 0x54 // 'T'

// Complete returns the fully-connected graph on n >= 2 processes — the
// paper's network, as an explicit value.
func Complete(n int) Topology { return Topology{core.Complete(n)} }

// Ring returns the cycle on n >= 2 processes (two processes degenerate
// to a single edge).
func Ring(n int) Topology { return Topology{core.Ring(n)} }

// Line returns the path 0-1-...-(n-1) on n >= 2 processes.
func Line(n int) Topology { return Topology{core.Line(n)} }

// Star returns the star on n >= 2 processes with process 0 at the
// center.
func Star(n int) Topology { return Topology{core.Star(n)} }

// RandomTree returns a uniformly attached random tree on n >= 2
// processes, deterministic in the seed.
func RandomTree(n int, seed uint64) Topology {
	return Topology{core.RandomTree(n, rng.New(rng.Mix(seed, topologySalt)))}
}

// GNP returns an Erdős–Rényi graph on n >= 2 processes where each
// possible edge exists independently with probability p, deterministic
// in the seed. The result may be disconnected; check Connected before
// expecting cluster-wide protocols to involve every process.
func GNP(n int, p float64, seed uint64) Topology {
	return Topology{core.GNP(n, p, rng.New(rng.Mix(seed, topologySalt)))}
}

// ParseTopology reads a graph from the graph.txt format: an "n <count>"
// header line followed by one "u v" edge per line, with blank lines and
// "#" comments ignored.
func ParseTopology(data []byte) (Topology, error) {
	t, err := core.ParseTopology(data)
	if err != nil {
		return Topology{}, err
	}
	return Topology{t}, nil
}

// LoadTopology reads a graph.txt file from disk.
func LoadTopology(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("snapstab: load topology: %w", err)
	}
	t, err := ParseTopology(data)
	if err != nil {
		return Topology{}, fmt.Errorf("snapstab: load topology %s: %w", path, err)
	}
	return t, nil
}

// TopologyByName builds one of the named graph families on n processes:
// "complete", "ring", "line", "star", "tree" (seeded random tree), or
// "gnp:<p>" (seeded Erdős–Rényi with edge probability p). It is the
// grammar behind every command-line -topology flag.
func TopologyByName(name string, n int, seed uint64) (Topology, error) {
	switch lower := strings.ToLower(strings.TrimSpace(name)); {
	case lower == "complete":
		return Complete(n), nil
	case lower == "ring":
		return Ring(n), nil
	case lower == "line":
		return Line(n), nil
	case lower == "star":
		return Star(n), nil
	case lower == "tree":
		return RandomTree(n, seed), nil
	case strings.HasPrefix(lower, "gnp:"):
		p, err := strconv.ParseFloat(lower[len("gnp:"):], 64)
		if err != nil || p < 0 || p > 1 {
			return Topology{}, fmt.Errorf("snapstab: topology %q: edge probability must be in [0,1]", name)
		}
		return GNP(n, p, seed), nil
	}
	return Topology{}, fmt.Errorf("snapstab: unknown topology %q (want complete, ring, line, star, tree, or gnp:<p>)", name)
}

// ResolveTopology interprets a command-line topology specification: a
// path to a graph.txt file when one exists at spec, a TopologyByName
// family otherwise. The loaded graph must span exactly n processes.
func ResolveTopology(spec string, n int, seed uint64) (Topology, error) {
	if _, err := os.Stat(spec); err == nil {
		t, err := LoadTopology(spec)
		if err != nil {
			return Topology{}, err
		}
		if t.N() != n {
			return Topology{}, fmt.Errorf("snapstab: topology %s spans %d processes, cluster has %d", spec, t.N(), n)
		}
		return t, nil
	}
	return TopologyByName(spec, n, seed)
}

// IsZero reports whether t is the zero Topology (no explicit graph).
func (t Topology) IsZero() bool { return t.t == nil }

// N returns the number of processes (0 for the zero Topology).
func (t Topology) N() int {
	if t.t == nil {
		return 0
	}
	return t.t.N()
}

// EdgeCount returns the number of undirected edges.
func (t Topology) EdgeCount() int {
	if t.t == nil {
		return 0
	}
	return t.t.EdgeCount()
}

// Edges returns every undirected edge as an ascending (u, v) pair with
// u < v.
func (t Topology) Edges() [][2]int {
	if t.t == nil {
		return nil
	}
	edges := t.t.Edges()
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{int(e[0]), int(e[1])}
	}
	return out
}

// Degree returns process p's neighbour count.
func (t Topology) Degree(p int) int {
	if t.t == nil {
		return 0
	}
	return t.t.Degree(core.ProcID(p))
}

// Neighbors returns process p's neighbours in ascending order.
func (t Topology) Neighbors(p int) []int {
	if t.t == nil {
		return nil
	}
	ns := t.t.Neighbors(core.ProcID(p))
	out := make([]int, len(ns))
	for i, q := range ns {
		out[i] = int(q)
	}
	return out
}

// HasEdge reports whether processes u and v share a channel.
func (t Topology) HasEdge(u, v int) bool {
	if t.t == nil {
		return false
	}
	return t.t.HasEdge(core.ProcID(u), core.ProcID(v))
}

// Connected reports whether the graph is connected.
func (t Topology) Connected() bool { return t.t != nil && t.t.Connected() }

// IsTree reports whether the graph is a tree (connected, n-1 edges).
func (t Topology) IsTree() bool { return t.t != nil && t.t.IsTree() }

// IsComplete reports whether the graph is fully connected.
func (t Topology) IsComplete() bool { return t.t != nil && t.t.IsComplete() }

// String renders the graph in the canonical graph.txt format.
func (t Topology) String() string {
	if t.t == nil {
		return ""
	}
	return t.t.String()
}

// WithTopology routes the cluster over t instead of the default complete
// graph. An explicit Complete(n) behaves byte-identically to no topology
// at all. The graph must span exactly the cluster's process count (the
// substrate panics at construction otherwise). Protocols designed for the
// fully-connected network (IDs-Learning, mutual exclusion, reset,
// snapshot) reject sparser graphs at construction; PIF clusters run the
// computation over the initiator's neighbourhood; forwarding clusters
// require a tree.
func WithTopology(t Topology) Option {
	return func(o *options) { o.topology = t.t }
}

// Protocols names the seven cluster families, as every tool's -protocol
// flag and the snapd config spell them: NewPIFCluster,
// NewTypedPIFCluster, NewIDCluster, NewMutexCluster, NewResetCluster,
// NewSnapshotCluster, NewForwardingCluster.
var Protocols = []string{"pif", "typed", "idl", "mutex", "reset", "snap", "forward"}

// CheckTopology reports whether the named family can span t. The zero
// Topology — each family's native graph — always passes. The paper's
// fully-connected protocols (idl, mutex, reset, snap) need the complete
// graph and forwarding needs a tree: their constructors panic with this
// error. PIF computations span the initiator's neighbourhood, so pif and
// typed pass on any connected graph; their constructors accept a
// disconnected one too (the far side never hears of the broadcast),
// which a tool running the family cluster-wide has no use for.
func CheckTopology(protocol string, t Topology) error {
	var ok bool
	var need string
	switch protocol {
	case "pif", "typed":
		ok, need = t.Connected(), "connected"
	case "idl", "mutex", "reset", "snap":
		ok, need = t.IsComplete(), "complete (the protocol is the paper's fully-connected one)"
	case "forward":
		ok, need = t.IsTree(), "a tree"
	default:
		return fmt.Errorf("snapstab: unknown protocol %q (want one of %s)", protocol, strings.Join(Protocols, ", "))
	}
	if t.IsZero() || ok {
		return nil
	}
	return fmt.Errorf("snapstab: protocol %q: the %d-process topology with %d edges is not %s",
		protocol, t.N(), t.EdgeCount(), need)
}

// requireTopology is CheckTopology at cluster construction.
func (o options) requireTopology(protocol string) {
	if err := CheckTopology(protocol, Topology{o.topology}); err != nil {
		panic(err.Error())
	}
}

// FleetIDs returns the distinct identifier set the tools give the
// identifier-based families (idl, mutex): a pure function of the cluster
// size, so the daemons of a fleet agree on it without configuring it and
// a checker knows the ground truth.
func FleetIDs(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i*13 + 5)
	}
	return out
}
