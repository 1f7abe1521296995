// Package deploy is the multi-host deployment plane: the snapd config
// file format, the daemon that hosts one fleet process over the TCP
// substrate behind an HTTP control API, and the client snapctl drives it
// with. One JSON config file fully determines a daemon; n config files
// that agree on the fleet-wide fields (everything except node, listen,
// and control) determine a fleet that behaves as one cluster — including
// seeded corruption, which each daemon applies to its full local stack
// set so the draws line up across the fleet.
package deploy

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	snapstab "github.com/snapstab/snapstab"
)

// Config is one daemon's config file.
type Config struct {
	// Node is the fleet process this daemon hosts.
	Node int `json:"node"`
	// Protocol selects the cluster type: pif, typed, idl, mutex, reset,
	// snap, or forward. Must agree across the fleet.
	Protocol string `json:"protocol"`
	// Listen is the transport listen address. It should resolve to the
	// same endpoint as Peers[Node], which is what the other daemons dial.
	Listen string `json:"listen"`
	// Control is the HTTP control/metrics listen address.
	Control string `json:"control"`
	// Peers maps every fleet process to its advertised transport address.
	// The length is the fleet size; must agree across the fleet.
	Peers []string `json:"peers"`
	// Topology routes over this graph: a family name (complete, ring,
	// line, star, tree, gnp:<p>) or a graph.txt path. Empty = the
	// protocol's native graph. Must agree across the fleet.
	Topology string `json:"topology,omitempty"`
	// Seed seeds the cluster (default 1). Must agree across the fleet.
	Seed uint64 `json:"seed,omitempty"`
	// Corrupt randomizes every protocol state at startup, before the
	// daemon serves requests — the fleet starts from an arbitrary
	// configuration. Must agree across the fleet.
	Corrupt bool `json:"corrupt,omitempty"`
	// CorruptSeed seeds the corruption draws (default: Seed). Must agree
	// across the fleet.
	CorruptSeed uint64 `json:"corrupt_seed,omitempty"`
	// Batch bounds how many messages one wire frame from this daemon
	// carries (snapstab.WithBatch; 0 = the default, 1 gives every message
	// its own frame). A local performance knob: receivers take frames of
	// any packing, so daemons in one fleet may set it differently.
	Batch int `json:"batch,omitempty"`
	// Faults installs a fault plan on the transport. Must agree across
	// the fleet for a coherent adversary (each daemon injects at its own
	// mailbox boundary).
	Faults *FaultConfig `json:"faults,omitempty"`
	// LogLevel selects the slog level: debug, info (default), warn,
	// error.
	LogLevel string `json:"log_level,omitempty"`
}

// FaultConfig is the JSON shape of a fault plan (snapstab.FaultPlan with
// link overrides as a list, since JSON has no struct keys, and the tick
// unit in milliseconds).
type FaultConfig struct {
	Seed       uint64                     `json:"seed,omitempty"`
	Default    snapstab.LinkFaults        `json:"default,omitempty"`
	Links      []LinkOverride             `json:"links,omitempty"`
	Partitions []snapstab.PartitionWindow `json:"partitions,omitempty"`
	Crashes    []snapstab.CrashWindow     `json:"crashes,omitempty"`
	UnitMS     int64                      `json:"unit_ms,omitempty"`
}

// LinkOverride is one directed link's policy override.
type LinkOverride struct {
	From int `json:"from"`
	To   int `json:"to"`
	snapstab.LinkFaults
}

// Plan converts the config shape to the façade's plan.
func (f *FaultConfig) Plan() snapstab.FaultPlan {
	p := snapstab.FaultPlan{
		Seed:       f.Seed,
		Default:    f.Default,
		Partitions: f.Partitions,
		Crashes:    f.Crashes,
		Unit:       time.Duration(f.UnitMS) * time.Millisecond,
	}
	if len(f.Links) > 0 {
		p.Links = make(map[snapstab.Link]snapstab.LinkFaults, len(f.Links))
		for _, o := range f.Links {
			p.Links[snapstab.Link{From: o.From, To: o.To}] = o.LinkFaults
		}
	}
	return p
}

// Load reads and validates a config file.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("deploy: parse %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("deploy: %s: %w", path, err)
	}
	return cfg, nil
}

// Validate checks the fields a daemon cannot start without.
func (c Config) Validate() error {
	if len(c.Peers) < 2 {
		return fmt.Errorf("need at least 2 peers, got %d", len(c.Peers))
	}
	if c.Node < 0 || c.Node >= len(c.Peers) {
		return fmt.Errorf("node %d outside fleet of %d", c.Node, len(c.Peers))
	}
	if !slices.Contains(snapstab.Protocols, c.Protocol) {
		return fmt.Errorf("unknown protocol %q", c.Protocol)
	}
	if c.Listen == "" {
		return fmt.Errorf("listen address required")
	}
	if c.Control == "" {
		return fmt.Errorf("control address required")
	}
	for i, p := range c.Peers {
		if p == "" {
			return fmt.Errorf("peer %d has no address", i)
		}
	}
	if c.Batch < 0 {
		return fmt.Errorf("batch must be >= 0, got %d", c.Batch)
	}
	return nil
}

// corruptSeed returns the effective corruption seed.
func (c Config) corruptSeed() uint64 {
	if c.CorruptSeed != 0 {
		return c.CorruptSeed
	}
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

// options assembles the façade options the daemon's cluster is built
// with: the TCPHost substrate plus the fleet-wide settings. The resolved
// topology is returned for protocol validation.
func (c Config) options() ([]snapstab.Option, snapstab.Topology, error) {
	opts := []snapstab.Option{
		snapstab.WithSubstrate(snapstab.TCPHost(snapstab.TCPFleet{
			Self:   c.Node,
			Listen: c.Listen,
			Peers:  c.Peers,
		})),
	}
	if c.Seed != 0 {
		opts = append(opts, snapstab.WithSeed(c.Seed))
	}
	if c.Batch > 0 {
		opts = append(opts, snapstab.WithBatch(c.Batch))
	}
	var topo snapstab.Topology
	if c.Topology != "" {
		t, err := snapstab.ResolveTopology(c.Topology, len(c.Peers), c.Seed)
		if err != nil {
			return nil, topo, err
		}
		topo = t
		opts = append(opts, snapstab.WithTopology(topo))
	}
	if c.Faults != nil {
		opts = append(opts, snapstab.WithFaults(c.Faults.Plan()))
	}
	return opts, topo, nil
}
