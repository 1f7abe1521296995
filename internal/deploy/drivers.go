// Protocol drivers: one builder per cluster type, mapping the daemon's
// HTTP operations onto the façade's request API. Every operation
// initiates at the daemon's own process — on the TCPHost substrate a
// request at any other process belongs to that process's daemon, and the
// façade enforces it with ErrRemoteProcess.
package deploy

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"

	snapstab "github.com/snapstab/snapstab"
)

// buildDriver constructs the configured protocol's cluster on the
// TCPHost substrate and wires its operations. Cluster construction
// panics on substrate failures (a busy transport port); the recover
// turns that into a startup error.
func buildDriver(cfg Config, countEvent func(kind string), log *slog.Logger) (drv *driver, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("deploy: cluster construction: %v", r)
		}
	}()
	opts, topo, err := cfg.options()
	if err != nil {
		return nil, err
	}
	opts = append(opts, snapstab.WithEventHook(func(e snapstab.ObservedEvent) {
		countEvent(e.Kind)
	}))
	n := len(cfg.Peers)
	self := cfg.Node
	if err := snapstab.CheckTopology(cfg.Protocol, topo); err != nil {
		return nil, fmt.Errorf("deploy: topology %q: %w", cfg.Topology, err)
	}

	switch cfg.Protocol {
	case "pif":
		c := snapstab.NewPIFCluster(n, opts...)
		return &driver{cluster: c, ops: opsMap{
			"broadcast": func(ctx context.Context, params json.RawMessage) (any, error) {
				var p struct {
					Tag string `json:"tag"`
					Num int64  `json:"num"`
				}
				if err := unmarshalParams(params, &p); err != nil {
					return nil, err
				}
				req := c.BroadcastAsync(self, p.Tag, p.Num)
				if err := req.Wait(ctx); err != nil {
					return nil, err
				}
				type fb struct {
					From int    `json:"from"`
					Tag  string `json:"tag"`
					Num  int64  `json:"num"`
				}
				var out []fb
				for _, f := range req.Feedbacks() {
					out = append(out, fb{From: f.From, Tag: f.Value.Tag, Num: f.Value.Num})
				}
				return map[string]any{"feedbacks": out}, nil
			},
		}}, nil

	case "typed":
		// Application values are arbitrary JSON documents: the codec
		// carries them as opaque wire blobs, and feedbacks echo them.
		c := snapstab.NewTypedPIFCluster(n, snapstab.JSON[json.RawMessage](), opts...)
		return &driver{cluster: c, ops: opsMap{
			"broadcast": func(ctx context.Context, params json.RawMessage) (any, error) {
				var p struct {
					Value json.RawMessage `json:"value"`
				}
				if err := unmarshalParams(params, &p); err != nil {
					return nil, err
				}
				if len(p.Value) == 0 {
					return nil, fmt.Errorf("typed broadcast needs params.value (a JSON document)")
				}
				req := c.BroadcastAsync(self, p.Value)
				if err := req.Wait(ctx); err != nil {
					return nil, err
				}
				type fb struct {
					From  int             `json:"from"`
					Value json.RawMessage `json:"value,omitempty"`
					Error string          `json:"error,omitempty"`
				}
				var out []fb
				for _, f := range req.Feedbacks() {
					e := fb{From: f.From, Value: f.Value}
					if f.Err != nil {
						e.Error = f.Err.Error()
						e.Value = nil
					}
					out = append(out, e)
				}
				return map[string]any{"feedbacks": out}, nil
			},
		}}, nil

	case "idl":
		c := snapstab.NewIDCluster(snapstab.FleetIDs(n), opts...)
		return &driver{cluster: c, ops: opsMap{
			"learn": func(ctx context.Context, params json.RawMessage) (any, error) {
				req := c.LearnAsync(self)
				if err := req.Wait(ctx); err != nil {
					return nil, err
				}
				return map[string]any{"min_id": req.MinID(), "table": req.Table()}, nil
			},
		}}, nil

	case "mutex":
		c := snapstab.NewMutexCluster(snapstab.FleetIDs(n), opts...)
		return &driver{cluster: c, ops: opsMap{
			"acquire": func(ctx context.Context, params json.RawMessage) (any, error) {
				entered := false
				req := c.AcquireAsync(self, func() {
					entered = true
					log.Info("critical section", "node", self)
				})
				if err := req.Wait(ctx); err != nil {
					return nil, err
				}
				return map[string]any{
					"entered":    entered,
					"entries":    c.Entries(),
					"violations": len(c.Violations()),
				}, nil
			},
		}}, nil

	case "reset":
		c := snapstab.NewResetCluster(n, func(p int, epoch int64) {
			log.Info("reinitialized", "proc", p, "epoch", epoch)
		}, opts...)
		return &driver{cluster: c, ops: opsMap{
			"reset": func(ctx context.Context, params json.RawMessage) (any, error) {
				req := c.ResetAsync(self)
				if err := req.Wait(ctx); err != nil {
					return nil, err
				}
				return map[string]any{"epoch": req.Epoch()}, nil
			},
		}}, nil

	case "snap":
		// The snapshot provider is a pure function of the process index,
		// so the collected view is verifiable fleet-wide: each daemon's
		// provider answers for its own process only (on the TCPHost
		// substrate the remote providers run in the remote daemons).
		c := snapstab.NewSnapshotCluster(n, func(p int) snapstab.Payload {
			return snapstab.Payload{Tag: "state", Num: int64(p) * 111}
		}, opts...)
		return &driver{cluster: c, ops: opsMap{
			"snapshot": func(ctx context.Context, params json.RawMessage) (any, error) {
				req := c.CollectAsync(self)
				if err := req.Wait(ctx); err != nil {
					return nil, err
				}
				type view struct {
					Proc int    `json:"proc"`
					Tag  string `json:"tag"`
					Num  int64  `json:"num"`
				}
				var out []view
				for q, v := range req.Views() {
					out = append(out, view{Proc: q, Tag: v.Tag, Num: v.Num})
				}
				return map[string]any{"views": out}, nil
			},
		}}, nil

	case "forward":
		c := snapstab.NewForwardingCluster(n, snapstab.JSON[json.RawMessage](), opts...)
		return &driver{cluster: c, ops: opsMap{
			"forward": func(ctx context.Context, params json.RawMessage) (any, error) {
				var p struct {
					Dst   int             `json:"dst"`
					Value json.RawMessage `json:"value"`
				}
				if err := unmarshalParams(params, &p); err != nil {
					return nil, err
				}
				if len(p.Value) == 0 {
					return nil, fmt.Errorf("forward needs params.value (a JSON document)")
				}
				req := c.SendAsync(self, p.Dst, p.Value)
				if err := req.Wait(ctx); err != nil {
					return nil, err
				}
				return map[string]any{"key": req.Key(), "dst": p.Dst}, nil
			},
			"deliveries": func(ctx context.Context, params json.RawMessage) (any, error) {
				type delivery struct {
					From  int             `json:"from"`
					Value json.RawMessage `json:"value,omitempty"`
					Error string          `json:"error,omitempty"`
				}
				var out []delivery
				for _, d := range c.Deliveries(self) {
					e := delivery{From: d.From, Value: d.Value}
					if d.Err != nil {
						e.Error = d.Err.Error()
						e.Value = nil
					}
					out = append(out, e)
				}
				return map[string]any{"deliveries": out}, nil
			},
		}}, nil
	}
	return nil, fmt.Errorf("deploy: unknown protocol %q", cfg.Protocol)
}

// opsMap is sugar for the driver op tables.
type opsMap map[string]func(ctx context.Context, params json.RawMessage) (any, error)

// unmarshalParams decodes params into v, treating absent params as the
// zero value (operations with optional arguments).
func unmarshalParams(params json.RawMessage, v any) error {
	if len(params) == 0 {
		return nil
	}
	if err := json.Unmarshal(params, v); err != nil {
		return fmt.Errorf("bad params: %w", err)
	}
	return nil
}
