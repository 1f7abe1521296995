// The daemon: one fleet process hosted over the TCP substrate, driven
// through an HTTP control API.
//
// Endpoints:
//
//	GET  /v1/status   — node identity, fleet shape, transport counters
//	POST /v1/request  — submit one protocol request; the response streams
//	                    NDJSON: an "accepted" line with the request id,
//	                    then a "done" line with the result (or "error")
//	GET  /metrics     — Prometheus text exposition
//
// Every HTTP request's duration lands in the latency histogram, and
// every protocol request is logged with its request id at submission and
// completion, so a fleet's logs correlate across daemons.
package deploy

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/obs"
)

// Daemon hosts one fleet process.
type Daemon struct {
	cfg     Config
	log     *slog.Logger
	metrics *obs.NodeMetrics
	ids     *obs.RequestIDs
	drv     *driver
	start   time.Time

	httpLn  net.Listener
	httpSrv *http.Server

	closeOnce sync.Once
}

// driver is the protocol-specific slice of a daemon: the built cluster
// and the operations it serves.
type driver struct {
	cluster snapstab.Cluster
	// ops maps operation names to handlers. Params arrive as the
	// request's raw JSON "params" field.
	ops map[string]func(ctx context.Context, params json.RawMessage) (any, error)
}

// opNames lists the driver's operations for error messages and status.
func (d *driver) opNames() []string {
	names := make([]string, 0, len(d.ops))
	for name := range d.ops {
		names = append(names, name)
	}
	// Deterministic order for status output and error messages.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// New builds a daemon from its config: the cluster on the TCPHost
// substrate (binding the transport listener), the metrics registry, and
// the control HTTP listener. Call Serve to start handling requests and
// Close to tear everything down.
func New(cfg Config, log *slog.Logger) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if log == nil {
		log = obs.NewLogger(noopWriter{}, slog.LevelError, cfg.Node, cfg.Protocol)
	}
	d := &Daemon{
		cfg:   cfg,
		log:   log,
		ids:   obs.NewRequestIDs(cfg.Node),
		start: time.Now(),
	}
	drv, err := buildDriver(cfg, func(kind string) {
		if d.metrics != nil {
			d.metrics.CountEvent(kind)
		}
	}, log)
	if err != nil {
		return nil, err
	}
	d.drv = drv
	d.metrics = obs.NewNodeMetrics(cfg.Node, cfg.Protocol, drv.cluster.TransportStats)
	if cfg.Corrupt {
		drv.cluster.CorruptEverything(cfg.corruptSeed())
		log.Info("initial configuration corrupted", "seed", cfg.corruptSeed())
	}
	ln, err := net.Listen("tcp", cfg.Control)
	if err != nil {
		drv.cluster.Close()
		return nil, fmt.Errorf("deploy: control listen %q: %w", cfg.Control, err)
	}
	d.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", d.handleStatus)
	mux.HandleFunc("/v1/request", d.handleRequest)
	mux.Handle("/metrics", d.metrics.Registry().Handler())
	d.httpSrv = &http.Server{Handler: d.timed(mux)}
	return d, nil
}

// noopWriter drops log output (tests and the default nil-logger path).
type noopWriter struct{}

func (noopWriter) Write(p []byte) (int, error) { return len(p), nil }

// ControlAddr returns the bound control address (useful with port 0).
func (d *Daemon) ControlAddr() string { return d.httpLn.Addr().String() }

// TransportAddr returns the hosted node's bound transport address.
func (d *Daemon) TransportAddr() string {
	for i, s := range d.drv.cluster.TransportStats() {
		if i == d.cfg.Node {
			return s.Addr
		}
	}
	return ""
}

// Serve handles control requests until Close; it returns the server's
// terminal error (http.ErrServerClosed after a clean Close).
func (d *Daemon) Serve() error {
	d.log.Info("daemon up",
		"transport", d.TransportAddr(),
		"control", d.ControlAddr(),
		"fleet", len(d.cfg.Peers),
		"ops", d.drv.opNames())
	return d.httpSrv.Serve(d.httpLn)
}

// Close shuts the control server and the cluster down. Idempotent.
func (d *Daemon) Close() error {
	var err error
	d.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = d.httpSrv.Shutdown(ctx)
		err = d.drv.cluster.Close()
	})
	return err
}

// timed wraps the whole control surface with the request-latency
// histogram: every endpoint's duration is observed, so even a daemon
// that only ever served status and scrapes has a live histogram.
func (d *Daemon) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d.metrics.RequestLatency.Observe(time.Since(start).Seconds())
	})
}

// Status is the /v1/status response body.
type Status struct {
	Node      int                     `json:"node"`
	Protocol  string                  `json:"protocol"`
	Fleet     int                     `json:"fleet"`
	Transport string                  `json:"transport"`
	Control   string                  `json:"control"`
	UptimeSec float64                 `json:"uptime_sec"`
	Ops       []string                `json:"ops"`
	Stats     snapstab.TransportStats `json:"stats"`
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	var self snapstab.TransportStats
	if all := d.drv.cluster.TransportStats(); d.cfg.Node < len(all) {
		self = all[d.cfg.Node]
	}
	st := Status{
		Node:      d.cfg.Node,
		Protocol:  d.cfg.Protocol,
		Fleet:     len(d.cfg.Peers),
		Transport: d.TransportAddr(),
		Control:   d.ControlAddr(),
		UptimeSec: time.Since(d.start).Seconds(),
		Ops:       d.drv.opNames(),
		Stats:     self,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// RequestBody is the /v1/request submission shape.
type RequestBody struct {
	// Op names the operation; /v1/status lists what the daemon's
	// protocol serves.
	Op string `json:"op"`
	// Params are the operation's arguments (shape per operation).
	Params json.RawMessage `json:"params,omitempty"`
	// TimeoutMS bounds the request (default 30000).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// StreamLine is one NDJSON line of a /v1/request response.
type StreamLine struct {
	ID      string          `json:"id"`
	Event   string          `json:"event"` // "accepted", "done", "error"
	Op      string          `json:"op,omitempty"`
	Error   string          `json:"error,omitempty"`
	Elapsed float64         `json:"elapsed_sec,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

func (d *Daemon) handleRequest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var body RequestBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	op, ok := d.drv.ops[body.Op]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown op %q for protocol %s (have %v)",
			body.Op, d.cfg.Protocol, d.drv.opNames()), http.StatusBadRequest)
		d.metrics.Requests.With(body.Op, "unknown").Inc()
		return
	}
	timeout := 30 * time.Second
	if body.TimeoutMS > 0 {
		timeout = time.Duration(body.TimeoutMS) * time.Millisecond
	}
	id := d.ids.Next()
	log := d.log.With("req", id, "op", body.Op)
	log.Info("request accepted")

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	enc.Encode(StreamLine{ID: id, Event: "accepted", Op: body.Op})
	flush()

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	start := time.Now()
	result, err := op(ctx, body.Params)
	elapsed := time.Since(start)
	if err != nil {
		d.metrics.Requests.With(body.Op, "error").Inc()
		log.Error("request failed", "err", err, "elapsed", elapsed)
		enc.Encode(StreamLine{ID: id, Event: "error", Op: body.Op, Error: err.Error(), Elapsed: elapsed.Seconds()})
		return
	}
	raw, merr := json.Marshal(result)
	if merr != nil {
		raw = []byte(fmt.Sprintf("%q", fmt.Sprint(result)))
	}
	d.metrics.Requests.With(body.Op, "ok").Inc()
	log.Info("request done", "elapsed", elapsed)
	enc.Encode(StreamLine{ID: id, Event: "done", Op: body.Op, Elapsed: elapsed.Seconds(), Result: raw})
}
