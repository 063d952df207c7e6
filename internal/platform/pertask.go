package platform

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// TaskAware is a Workload that exposes its task layout (PC spans),
// enabling per-job execution-time measurement — the input to per-task
// MBPTA and probabilistic response-time analysis. PCs outside every
// span (the dispatcher / cyclic executive glue) belong to no task.
type TaskAware interface {
	Workload
	TaskSpans() []isa.Span
}

// ValidateSpans checks that spans are well-formed and disjoint.
func ValidateSpans(spans []isa.Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("platform: no task spans")
	}
	s := append([]isa.Span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	for i, sp := range s {
		if sp.End <= sp.Start {
			return fmt.Errorf("platform: span %q empty [%#x,%#x)", sp.Name, sp.Start, sp.End)
		}
		if i > 0 && sp.Start < s[i-1].End {
			return fmt.Errorf("platform: spans %q and %q overlap", s[i-1].Name, sp.Name)
		}
	}
	return nil
}

// JobTimes maps task name to the per-job execution times (cycles) in
// activation order. Cycles spent outside every span are reported under
// the pseudo-task "(dispatcher)" as a single figure per run.
type JobTimes map[string][]uint64

// RunPerTask performs one protocol-compliant measurement of w,
// additionally attributing cycles to task jobs by PC span. A job starts
// when execution enters a task's span and ends when it leaves it; the
// cyclic executive of the case study calls each task body once per
// activation, so jobs are contiguous (the measurement does not support
// preemption inside a span).
func (p *Platform) RunPerTask(w TaskAware, run int, runSeed uint64) (RunResult, JobTimes, error) {
	spans := w.TaskSpans()
	if err := ValidateSpans(spans); err != nil {
		return RunResult{}, nil, err
	}
	m, err := w.Prepare(run)
	if err != nil {
		return RunResult{}, nil, fmt.Errorf("platform %s: prepare run %d: %w", p.cfg.Name, run, err)
	}
	p.PrepareRun(runSeed)

	ts := taskSink{core: p.meas.core, spans: spans, jobs: make(JobTimes), current: -1, prev: p.meas.core.Cycle()}
	if _, err := m.RunBlocks(&ts); err != nil {
		return RunResult{}, nil, fmt.Errorf("platform %s: run %d: %w", p.cfg.Name, run, err)
	}
	jobs, current, jobCycles := ts.jobs, ts.current, ts.jobCycles
	if current >= 0 {
		jobs[spans[current].Name] = append(jobs[spans[current].Name], jobCycles)
	}
	jobs["(dispatcher)"] = []uint64{ts.dispatchCycles}
	return RunResult{
		Cycles:       p.meas.core.Cycle(),
		Instructions: p.meas.core.Stats().Instructions,
		Path:         w.PathOf(m),
	}, jobs, nil
}

// taskSink charges a run to the core one instruction at a time and
// attributes each instruction's cycles to the task span holding its PC
// (or to the dispatcher outside every span).
type taskSink struct {
	core                      *cpu.Core
	spans                     []isa.Span
	jobs                      JobTimes
	current                   int // span index of the running job, -1 for none
	prev                      uint64
	jobCycles, dispatchCycles uint64
}

// FetchBytes asks for one-instruction blocks: a task span may start or
// end inside a fetch line.
func (s *taskSink) FetchBytes() int { return 0 }

func (s *taskSink) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	s.core.ConsumeBlock(pc, classes, taken, ops)
	now := s.core.Cycle()
	delta := now - s.prev
	s.prev = now
	sp := -1
	for i := range s.spans {
		if pc >= s.spans[i].Start && pc < s.spans[i].End {
			sp = i
			break
		}
	}
	if sp != s.current {
		if s.current >= 0 {
			name := s.spans[s.current].Name
			s.jobs[name] = append(s.jobs[name], s.jobCycles)
		}
		s.current = sp
		s.jobCycles = 0
	}
	if sp >= 0 {
		s.jobCycles += delta
	} else {
		s.dispatchCycles += delta
	}
}

// PerTaskWorstCampaign is the per-task campaign a certification-grade
// analysis actually uses: for each run, each task contributes its
// WORST job time. Within one run consecutive jobs of a task share
// warmed cache state and are therefore correlated (the i.i.d. gate
// rightly rejects concatenated job series); per-run maxima are i.i.d.
// across protocol-compliant runs and upper-bound every activation, so
// the fitted pWCET conservatively covers all jobs.
func PerTaskWorstCampaign(cfg Config, w TaskAware, runs int, baseSeed uint64) (map[string][]float64, error) {
	if runs < 1 {
		return nil, fmt.Errorf("platform: campaign needs >= 1 run, got %d", runs)
	}
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	for run := 0; run < runs; run++ {
		_, jobs, err := p.RunPerTask(w, run, DeriveRunSeed(baseSeed, run))
		if err != nil {
			return nil, err
		}
		for task, times := range jobs {
			if task == "(dispatcher)" {
				continue
			}
			worst := uint64(0)
			for _, t := range times {
				if t > worst {
					worst = t
				}
			}
			out[task] = append(out[task], float64(worst))
		}
	}
	return out, nil
}
