package core

import (
	"context"
	"errors"
)

// ErrDeadlineExceeded is returned by Solve when the run ends — by the
// caller's context or by MaxWallTime — before the convergence tolerance is
// reached. The returned Result is still valid: it carries the partial
// solution, its residual, and the trace up to the deadline.
var ErrDeadlineExceeded = errors.New("core: solve deadline exceeded before convergence")

// Solve runs the configured engine on the problem and returns the assembled
// solution, the convergence verdict, and the trace. It is the single entry
// point of the package: cfg.Engine selects among the deterministic DES engine
// (the default, byte-identical run over run), the synchronous VTM baseline,
// the mixed sync/async variant, and the live goroutine engine.
//
// The ctx bounds the run. Cancellation (or cfg.MaxWallTime, whichever fires
// first) ends the run early and returns the partial result — still carrying
// the assembled X, its residual, and the trace so far — alongside
// ErrDeadlineExceeded when a convergence target was set (cfg.Tol or an
// external cancellation); a time-boxed run with no target simply ends. The
// deterministic engines only poll the ctx when it can actually fire, so a
// context.Background() run pays nothing.
func Solve(ctx context.Context, p *Problem, cfg Config) (*Result, error) {
	cfg.normalize()
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	runCtx := ctx
	if cfg.MaxWallTime > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cfg.MaxWallTime)
		defer cancel()
	}
	var (
		res *Result
		err error
	)
	switch cfg.Engine {
	case EngineVTM:
		res, err = solveVTM(runCtx, p, &cfg)
	case EngineMixed:
		res, err = solveMixed(runCtx, p, &cfg)
	case EngineLive:
		res, err = solveLive(runCtx, p, &cfg)
	default:
		res, err = solveDES(runCtx, p, &cfg)
	}
	if err == ErrDeadlineExceeded && ctx.Err() == nil && cfg.Tol <= 0 {
		// MaxWallTime, not the caller, ended a run that had no convergence
		// target: a time-boxed run is complete by definition.
		err = nil
	}
	return res, err
}

// deadlineErr is what an engine returns for a run its ctx ended before a
// stopping rule fired; Solve decides whether that failed a deadline.
func deadlineErr(interrupted bool) error {
	if interrupted {
		return ErrDeadlineExceeded
	}
	return nil
}
