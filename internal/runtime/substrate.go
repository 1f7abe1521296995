// Substrate-mode driving: Engine implements core.Substrate. Do already
// gives external code atomic actions under the per-process mutex; Await
// adds condition waiting through the process's core.Waiters: its loop
// re-evaluates a pending condition at the end of each atomic section, so
// the waiter wakes in the section that made the condition true.
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

// Await evaluates cond under process p's mutex — here, in a section ending
// with an eager Step (a request it injected starts at once), then from
// p's loop — until it holds: nil, ctx.Err(), or ErrStopped.
func (e *Engine) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	e.procMu[p].Lock()
	w := e.waiters[p].Eval(e.envs[p][core.PathAction], cond)
	if !e.down(p) {
		e.stacks[p].Step(e.envs[p][core.PathEager])
	}
	e.procMu[p].Unlock()
	return e.waiters[p].Wait(ctx, &e.procMu[p], w, e.stop, nil)
}

// Close stops the engine; idempotent. Part of the core.Substrate
// interface.
func (e *Engine) Close() error {
	e.Stop()
	return nil
}
