// Substrate-mode driving: Engine implements core.Substrate. Do already
// gives external code atomic actions under the per-process mutex; Await
// adds condition waiting by polling the condition at the engine's tick
// cadence (deliveries are event-driven, so the tick bounds only how
// quickly an external observer notices a state change, not how quickly
// the protocols progress).
package runtime

import (
	"context"

	"github.com/snapstab/snapstab/internal/core"
)

// ErrStopped is returned by Await when the engine was stopped before the
// condition held: core.ErrClosed, under the name this package's callers
// know.
var ErrStopped = core.ErrClosed

var _ core.Substrate = (*Engine)(nil)

// N returns the number of processes.
func (e *Engine) N() int { return e.n }

// Await evaluates cond under process p's mutex at the tick cadence until
// it holds; see core.Substrate for the contract. It returns nil,
// ctx.Err(), or ErrStopped.
func (e *Engine) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	return core.PollAwait(ctx, e.tick, e.stop, nil, func() (ok bool) {
		e.Do(p, func(env core.Env) { ok = cond(env) })
		return ok
	})
}

// Close stops the engine; idempotent. Part of the core.Substrate
// interface.
func (e *Engine) Close() error {
	e.Stop()
	return nil
}
