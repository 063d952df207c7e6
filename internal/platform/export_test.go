package platform

import (
	"context"
	"errors"
	"slices"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// BoardCounters is every counter of a board's measured core and of the
// memory system behind it: what the fetch-block differential compares.
type BoardCounters struct {
	Core       cpu.Stats
	IL1, DL1   cache.Stats
	ITLB, DTLB tlb.Stats
	FPU        fpu.Stats
	Bus        bus.Stats
	DRAM       mem.Stats
}

func counters(c *cpu.Core, b *bus.Bus, d *mem.Controller) BoardCounters {
	return BoardCounters{
		Core: c.Stats(),
		IL1:  c.IL1.Stats(), DL1: c.DL1.Stats(),
		ITLB: c.ITLB.Stats(), DTLB: c.DTLB.Stats(),
		FPU: c.FPU.Stats(), Bus: b.Stats(), DRAM: d.Stats(),
	}
}

// instrSink feeds its core one instruction per block.
type instrSink struct{ *cpu.Core }

func (instrSink) FetchBytes() int { return 0 }

// runOn runs m on core c in fetch blocks or, with perInstr, one
// instruction per block.
func runOn(c *cpu.Core, m *isa.Machine, perInstr bool) error {
	if perInstr {
		_, err := m.RunBlocks(instrSink{c})
		return err
	}
	_, err := c.RunProgram(m)
	return err
}

// RunOnCoreForTest applies the per-run protocol for runSeed and runs m
// on the measured core (see runOn), returning the board's counters and
// the run error.
func (p *Platform) RunOnCoreForTest(m *isa.Machine, runSeed uint64, perInstr bool) (BoardCounters, error) {
	p.PrepareRun(runSeed)
	err := runOn(p.meas.core, m, perInstr)
	return counters(p.meas.core, p.bus, p.dram), err
}

// BusStats is the shared bus's activity over the board's last run.
func (mc *Multicore) BusStats() bus.Stats { return mc.bus.Stats() }

// NewStreamerMulticoreForTest returns a board of cfg whose core 1 runs a
// run-invariant (empty-key) streamer, after one run of w that records the
// streamer's iteration, so that later runs replay it.
func NewStreamerMulticoreForTest(cfg Config, w Workload) (*Multicore, error) {
	mc, err := NewMulticore(cfg, []Workload{stableStreamer{streamer{lines: 256}}})
	if err != nil {
		return nil, err
	}
	if _, err := mc.ExecuteRun(context.Background(), w, 0, DeriveRunSeed(1, 0)); err != nil {
		return nil, err
	}
	return mc, nil
}

// RunOnCoreForTest is Platform.RunOnCoreForTest for the measured core
// of a board made by NewStreamerMulticoreForTest, the co-runner
// replayed in front of its bus requests.
func (mc *Multicore) RunOnCoreForTest(m *isa.Machine, runSeed uint64, perInstr bool) (BoardCounters, error) {
	if !mc.co[1].done {
		return BoardCounters{}, errors.New("platform: co-runner iteration not recorded")
	}
	mc.prepareRun(runSeed)
	err := runOn(mc.cores[0], m, perInstr)
	return counters(mc.cores[0], mc.bus, mc.dram), err
}

// RunTasksForTest runs run of w under the per-run protocol for seed,
// through ExecuteRun or, with perInstr, through the reference
// attribution one instruction at a time (runPerTask), and returns the
// board's counters, the run's worst job per span and the run error.
func (p *Platform) RunTasksForTest(w TaskAware, run int, seed uint64, perInstr bool) (BoardCounters, []uint64, error) {
	if !perInstr {
		_, err := p.ExecuteRun(context.Background(), w, run, seed)
		return counters(p.meas.core, p.bus, p.dram), slices.Clone(p.meas.tasks.worst), err
	}
	_, jobs, err := runPerTask(p, w, run, seed)
	return counters(p.meas.core, p.bus, p.dram), worstJobs(jobs, w.TaskSpans()), err
}

// RunTasksForTest is Platform.RunTasksForTest on mc's measured core.
func (mc *Multicore) RunTasksForTest(w TaskAware, run int, seed uint64, perInstr bool) (BoardCounters, []uint64, error) {
	if !perInstr {
		_, err := mc.ExecuteRun(context.Background(), w, run, seed)
		return counters(mc.cores[0], mc.bus, mc.dram), slices.Clone(mc.meas.tasks.worst), err
	}
	_, jobs, err := mc.runPerTask(w, run, seed)
	return counters(mc.cores[0], mc.bus, mc.dram), worstJobs(jobs, w.TaskSpans()), err
}
