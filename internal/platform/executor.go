package platform

import (
	"context"
	"fmt"
	"time"
)

// Board is one simulated machine a worker executes measurement runs
// on: a single-core Platform or a co-simulated Multicore. The contract
// is the protocol contract of (*Platform).RunCtx — all randomness
// derives from seed, results are a pure function of (workload, run,
// seed), and execution aborts promptly once ctx is canceled.
type Board interface {
	ExecuteRun(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error)
}

// ExecuteRun implements Board: one protocol-compliant measurement.
func (p *Platform) ExecuteRun(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
	return p.RunCtx(ctx, w, run, seed)
}

// ExecuteRun implements Board on the co-simulated multicore platform:
// the measured workload runs on core 0, the co-runners loop on the
// remaining cores. Co-simulation commits to a whole run once started
// (the arbiter has no preemption point), so ctx is honored at the run
// boundary only.
func (mc *Multicore) ExecuteRun(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return RunResult{}, err
		}
	}
	r, err := mc.Run(w, run, seed)
	if err != nil {
		return RunResult{}, err
	}
	return r.Measured, nil
}

// ExecPolicy bundles the per-run resilience knobs shared by the
// streaming engine and the distributed campaign fabric: an optional
// run cache, a per-attempt wall-clock bound, and a bounded
// seed-preserving retry policy.
type ExecPolicy struct {
	// Cached, when non-nil, is consulted before any execution: a hit
	// returns the memoized result of run and skips the board, timeouts
	// and retries entirely. The platform protocol makes
	// results a pure function of (workload, run, seed), so replaying a
	// recorded result is indistinguishable from re-simulating it — this
	// is the content-addressed run cache's entry point into both the
	// streaming engine and the campaign fabric.
	Cached func(run int) (RunResult, bool)
	// RunTimeout bounds each attempt; an attempt exceeding it fails with
	// an error matching ErrRunTimeout. Zero means no per-run deadline.
	RunTimeout time.Duration
	// Retry re-executes failed attempts under the original seed.
	Retry RetryPolicy
	// counters receives retry/timeout tallies (nil-safe).
	counters retryCounters
}

// retryCounters abstracts the telemetry sink of the retry loop so the
// engine can pass its registry without ExecPolicy importing it.
type retryCounters interface {
	incTimeout()
	incRetry()
}

// ExecuteRun executes one measurement run on board under pol: run's
// seed is DeriveRunSeed(baseSeed, run), each attempt is bounded by
// pol.RunTimeout, and failing attempts retry per pol.Retry with the
// same seed — a retried run yields exactly the result a first-attempt
// success would have. This is the per-run primitive the streaming
// engine's workers and the fabric's executors share.
func ExecuteRun(ctx context.Context, board Board, w Workload, baseSeed uint64, run int, pol ExecPolicy) (RunResult, error) {
	if pol.Cached != nil {
		if r, ok := pol.Cached(run); ok {
			return r, nil
		}
	}
	seed := DeriveRunSeed(baseSeed, run)

	attempts := pol.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 && pol.Retry.Backoff > 0 {
			// Exponential backoff: Backoff, 2*Backoff, 4*Backoff, ...
			d := pol.Retry.Backoff << (a - 1)
			if d <= 0 || d > time.Minute {
				d = time.Minute
			}
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return RunResult{}, ctx.Err()
			case <-t.C:
			}
		}
		attemptCtx, cancelAttempt := ctx, context.CancelFunc(nil)
		if pol.RunTimeout > 0 {
			attemptCtx, cancelAttempt = context.WithTimeout(ctx, pol.RunTimeout)
		}
		r, err := board.ExecuteRun(attemptCtx, w, run, seed)
		timedOut := cancelAttempt != nil && attemptCtx.Err() == context.DeadlineExceeded
		if cancelAttempt != nil {
			cancelAttempt()
		}
		if err == nil {
			return r, nil
		}
		if ctx.Err() != nil {
			// The campaign itself was canceled; don't spin on retries.
			return RunResult{}, err
		}
		if timedOut {
			err = fmt.Errorf("%w: run %d exceeded %s: %v", ErrRunTimeout, run, pol.RunTimeout, err)
			if pol.counters != nil {
				pol.counters.incTimeout()
			}
		}
		if a+1 < attempts && pol.counters != nil {
			pol.counters.incRetry()
		}
		lastErr = err
	}
	if attempts > 1 {
		return RunResult{}, fmt.Errorf("platform: run %d failed after %d attempts: %w", run, attempts, lastErr)
	}
	return RunResult{}, lastErr
}

// SafeExecuteRun is ExecuteRun with worker panics converted into an
// error matching ErrWorkerPanic, so a supervision layer can handle the
// failure at the run boundary instead of crashing the process.
func SafeExecuteRun(ctx context.Context, board Board, w Workload, baseSeed uint64, run int, pol ExecPolicy) (r RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = RunResult{}, fmt.Errorf("%w: run %d: %v", ErrWorkerPanic, run, p)
		}
	}()
	return ExecuteRun(ctx, board, w, baseSeed, run, pol)
}
