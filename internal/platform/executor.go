package platform

import (
	"context"
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Board is one simulated machine a worker executes measurement runs
// on: a single-core Platform or a co-simulated Multicore. Both apply
// the paper's per-run protocol and measure core 0 through one shared
// run step (measured.exec): all randomness derives from seed, results
// are a pure function of (workload, run, seed), and execution aborts
// promptly once ctx is canceled.
type Board interface {
	ExecuteRun(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error)
}

// ExecPolicy bundles the per-run resilience knobs shared by the
// session engine's executors and remote executors: a per-attempt
// wall-clock bound and a bounded seed-preserving retry policy.
type ExecPolicy struct {
	// RunTimeout bounds each attempt; an attempt exceeding it fails with
	// an error matching ErrRunTimeout. Zero means no per-run deadline.
	RunTimeout time.Duration
	// Retry re-executes failed attempts under the original seed.
	Retry RetryPolicy
	// tele receives the retry/timeout tallies (nil: none).
	tele *telemetry.Registry
}

// ExecuteRun executes one measurement run on board under pol: run's
// seed is DeriveRunSeed(baseSeed, run), each attempt is bounded by
// pol.RunTimeout, and failing attempts retry per pol.Retry with the
// same seed — a retried run yields exactly the result a first-attempt
// success would have. This is the per-run primitive in-process and
// remote executors share.
func ExecuteRun(ctx context.Context, board Board, w Workload, baseSeed uint64, run int, pol ExecPolicy) (RunResult, error) {
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
			pol.tele.Counter("campaign_run_timeouts_total").Inc()
		}
		if a+1 < attempts {
			pol.tele.Counter("campaign_run_retries_total").Inc()
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
