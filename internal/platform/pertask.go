package platform

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/isa"
)

// TaskAware is a Workload that exposes its task layout (PC spans),
// enabling per-job execution-time measurement — the input to per-task
// MBPTA and probabilistic response-time analysis. PCs outside every
// span (the dispatcher / cyclic executive glue) belong to no task.
// Every board attributes its runs to the tasks (see taskClock).
type TaskAware interface {
	Workload
	TaskSpans() []isa.Span
}

// ValidateSpans checks that spans are well-formed, disjoint and
// uniquely named.
func ValidateSpans(spans []isa.Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("platform: no task spans")
	}
	for i, a := range spans {
		if a.End <= a.Start {
			return fmt.Errorf("platform: span %q empty [%#x,%#x)", a.Name, a.Start, a.End)
		}
		for _, b := range spans[:i] {
			if a.Name == b.Name {
				return fmt.Errorf("platform: two spans named %q", a.Name)
			}
			if a.Start < b.End && b.Start < a.End {
				return fmt.Errorf("platform: spans %q and %q overlap", b.Name, a.Name)
			}
		}
	}
	return nil
}

// taskClock is the measured core's per-task attribution: the spans of
// the TaskAware workload it runs (none for any other, or if
// ValidateSpans rejects them) and each span's worst job of the run in
// flight. A job runs from entering a span to leaving it; no block
// crosses a span edge (isa.Machine.Spans), so step, run before every
// block on every path, charges a block to its first PC's span.
type taskClock struct {
	w     TaskAware // the workload of the last run, if TaskAware
	spans []isa.Span
	cur   int    // the open job's span, -1 outside every span
	start uint64 // the cycle job cur started at
	worst []uint64
}

// arm prepares the attribution of a run of w: no job open, none kept.
// It reads w's spans unless w is the workload of the last run; a
// workload whose value Go cannot compare (one holding a slice, map or
// func) is never compared, and has its spans read every run.
func (t *taskClock) arm(w Workload) {
	ta, _ := w.(TaskAware)
	if ta == nil || !reflect.ValueOf(w).Comparable() || ta != t.w {
		*t = taskClock{w: ta}
		if ta != nil {
			if spans := ta.TaskSpans(); ValidateSpans(spans) == nil { // else no task
				t.spans, t.worst = spans, make([]uint64, len(spans))
			}
		}
	}
	clear(t.worst)
	t.cur = -1
}

// step attributes the block at pc, which the core is about to consume
// at cycle now: if pc lies in another span than the open job's (or in
// none), the job closes and one opens in pc's span. Nearly every block
// lies in the open job's span (all but 31 of a Frames-16 TVCA run's
// 19,157), so that span is checked before the others are scanned.
func (t *taskClock) step(pc, now uint64) {
	if t.cur >= 0 && t.spans[t.cur].Contains(pc) {
		return
	}
	sp := -1
	for i, s := range t.spans {
		if s.Contains(pc) {
			sp = i
		}
	}
	if sp != t.cur {
		t.close(now)
		t.cur, t.start = sp, now
	}
}

// close ends the open job at cycle now, keeping its span's worst.
func (t *taskClock) close(now uint64) {
	if t.cur >= 0 {
		t.worst[t.cur] = max(t.worst[t.cur], now-t.start)
	}
}

// PerTaskWorstCampaign is the per-task campaign a certification-grade
// analysis actually uses: for each run, each task contributes its
// WORST job time. Within one run consecutive jobs of a task share
// warmed cache state and are therefore correlated (the i.i.d. gate
// rightly rejects concatenated job series); per-run maxima are i.i.d.
// across protocol-compliant runs and upper-bound every activation, so
// the fitted pWCET conservatively covers all jobs. It is a plain
// StreamCampaign whose boards copy each run's worst jobs into a
// run-indexed table, so the series do not depend on placement; a task
// with no job in a run has no sample for it. Invalid spans fail it.
func PerTaskWorstCampaign(cfg Config, w TaskAware, runs int, baseSeed uint64) (map[string][]float64, error) {
	if runs < 1 || runs > MaxCampaignRuns {
		return nil, fmt.Errorf("platform: campaign run budget %d not in [1,%d]", runs, MaxCampaignRuns)
	}
	spans := w.TaskSpans()
	if err := ValidateSpans(spans); err != nil {
		return nil, err
	}
	worst := make([]uint64, runs*len(spans))
	opts := StreamOptions{MaxRuns: runs, BaseSeed: baseSeed, NewBoard: func() (Board, error) {
		p, err := New(cfg)
		return taskBoard{p, worst}, err
	}}
	if _, err := StreamCampaign(context.Background(), cfg, w, opts, nil); err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	for i, t := range worst {
		if sp := spans[i%len(spans)]; t > 0 {
			out[sp.Name] = append(out[sp.Name], float64(t))
		}
	}
	return out, nil
}

// taskBoard is a Platform that copies each successful run's worst jobs
// into its campaign's table, at row run.
type taskBoard struct {
	*Platform
	worst []uint64
}

func (b taskBoard) ExecuteRun(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
	res, err := b.Platform.ExecuteRun(ctx, w, run, seed)
	if n := len(b.meas.tasks.worst); err == nil {
		copy(b.worst[run*n:(run+1)*n], b.meas.tasks.worst)
	}
	return res, err
}
