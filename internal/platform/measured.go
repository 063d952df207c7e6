package platform

import (
	"context"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/tlb"
)

// measured is a board's measured core (core 0) and the run step that
// Platform and Multicore share: each board applies its own per-run
// protocol (flush, reset, reseed), then exec replays, records or
// interprets the run on the core, and the board calls tally once the
// whole run has succeeded.
type measured struct {
	core *cpu.Core

	// Machine reuse: the steady-state campaign loop re-initializes a
	// Reloader workload's machine in place instead of allocating a fresh
	// memory image every run.
	machine machineCache

	// Decode-once trace replay (see TraceKeyer and traceSlot): the
	// block streams recorded for recurring keys, replayed through the
	// timing model for later runs with the same key. blind reports an
	// operand-blind FPU, where non-empty keys may replay; replayOff
	// interprets every run (Platform.SetReplay).
	slot      traceSlot
	blind     bool
	replayOff bool

	tasks taskClock   // attributes a TaskAware workload's runs to its tasks
	rec   *blockTrace // the run's recording while it fits in the slot's room

	stop        bool // a co-runner failed: the measured core's poll ends the run
	interpreted bool // a machine ran this run, the measured one or a co-runner's
	recorded    bool // the measured run recorded its stream

	// runCtx is the context of the run in flight (nil when it can never
	// fire), polled through cancelFn — the canceled method value, bound
	// once per board, so a cancelable run allocates no closure.
	runCtx   context.Context
	cancelFn func() bool

	// Cumulative run-kind tallies for the telemetry harvest (see
	// BoardStats): how many measurements went through the trace-replay
	// fast path versus interpretation, and how many of the interpreted
	// ones recorded their stream.
	replayRuns    uint64
	interpretRuns uint64
	recordings    uint64
}

// init makes core, a core of cfg, the measured core.
func (c *measured) init(cfg Config, core *cpu.Core) {
	c.core, c.blind = core, cfg.FPUMode == fpu.ModeAnalysis
	c.cancelFn = c.canceled
}

// newCore builds core id of cfg on ic: its L1 caches and TLBs, which
// draw their randomness from src, and its FPU.
func newCore(cfg Config, id int, src *rng.Xoroshiro128, ic cpu.Interconnect) (*cpu.Core, error) {
	il1, err := cache.New(cfg.IL1, src)
	if err != nil {
		return nil, err
	}
	dl1, err := cache.New(cfg.DL1, src)
	if err != nil {
		return nil, err
	}
	itlb, err := tlb.New(cfg.ITLB, src)
	if err != nil {
		return nil, err
	}
	dtlb, err := tlb.New(cfg.DTLB, src)
	if err != nil {
		return nil, err
	}
	f, err := fpu.New(cfg.FPULat, cfg.FPUMode)
	if err != nil {
		return nil, err
	}
	return cpu.NewCore(id, cfg.CoreParams, il1, dl1, itlb, dtlb, f, ic)
}

// canceled is the run's cancellation poll: a co-runner failed or the
// run's context is done.
func (c *measured) canceled() bool {
	return c.stop || c.runCtx != nil && c.runCtx.Err() != nil
}

// exec performs run of w on the measured core once the board's per-run
// protocol has run: it replays a recording of the run's key, records
// the run's stream, or interprets it (see traceSlot). A replay is
// bit-identical to interpretation: the protocol already drew every
// seed, and the core meets the same bus contention. The machine or the
// replay polls canceled before its first block and after every 1,024
// instructions, and a poll that fires fails the run with
// isa.ErrCancelled; the poll does not touch the timing model.
func (c *measured) exec(ctx context.Context, w Workload, run int) (RunResult, error) {
	c.stop, c.interpreted, c.recorded, c.rec = false, false, false, nil
	c.runCtx = nil // never one a PollContext caller left armed
	c.tasks.arm(w)
	if ctx != nil && ctx.Done() != nil {
		c.runCtx = ctx
	}
	var hit *recording
	if !c.replayOff {
		hit, c.recorded = c.slot.next(w, run, c.blind)
	}
	var res RunResult
	var err error
	if hit != nil {
		if !hit.trace.replay(c.core, &c.tasks, c.cancelFn) {
			err = isa.ErrCancelled
		}
		res.Path = hit.path
	} else {
		c.interpreted = true
		var m *isa.Machine
		if m, err = c.machine.get(w, run); err == nil {
			m.Cancel, m.Spans = c.cancelFn, c.tasks.spans
			if c.recorded {
				c.rec = newBlockTrace(m.Prog)
			}
			_, err = m.RunBlocks(c)
		}
		if err == nil {
			res.Path = w.PathOf(m)
		}
	}
	c.runCtx = nil
	if err != nil {
		return RunResult{}, err
	}
	res.Cycles, res.Instructions = c.core.Cycle(), c.core.Stats().Instructions
	c.tasks.close(res.Cycles)
	return res, nil
}

// FetchBytes and ConsumeBlock make the measured core the isa.BlockSink
// of its interpreted runs: each block is attributed to the tasks, fed
// to the core and, while the run records, added to rec until rec would
// outgrow the trace set's room (rec is then dropped: nil). Recording
// leaves the timing untouched.
func (c *measured) FetchBytes() int { return min(c.core.FetchBytes(), maxBlockBytes) }

func (c *measured) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	c.tasks.step(pc, c.core.Cycle())
	c.core.ConsumeBlock(pc, classes, taken, ops)
	if c.rec == nil {
		return
	}
	k := len(c.rec.chunks)
	c.rec.add(pc, classes, taken, ops)
	if len(c.rec.chunks) != k && c.rec.bytes() > c.slot.room {
		c.rec = nil
	}
}

// tally counts the run exec just performed and commits its recording
// under path; the board calls it once the whole run has succeeded, so a
// failed run counts and keeps nothing.
func (c *measured) tally(path string) {
	if c.interpreted {
		c.interpretRuns++
	} else {
		c.replayRuns++
	}
	if c.recorded {
		c.recordings++
		c.slot.commit(c.rec, path)
	}
}

// stats returns the measured core's cumulative substrate counters and
// the run-kind tallies.
func (c *measured) stats() BoardStats {
	return BoardStats{
		IL1:           c.core.IL1.Stats(),
		DL1:           c.core.DL1.Stats(),
		ITLB:          c.core.ITLB.Stats(),
		DTLB:          c.core.DTLB.Stats(),
		FPU:           c.core.FPU.Stats(),
		ReplayRuns:    c.replayRuns,
		InterpretRuns: c.interpretRuns,
		Recordings:    c.recordings,
	}
}
