// Performance-regression guardrails for the hot-path work on the
// cycle-level simulator. Three invariants are pinned here:
//
//  1. Bit-identical timing: the optimizations (flat cache slabs, MRU
//     records, machine reuse, trace replay) must not change a single
//     cycle of any campaign. Golden cycle counts captured from the
//     pre-optimization simulator make any drift a test failure, not a
//     silently different paper artifact.
//  2. Zero-alloc steady state: after the first run of a workload warms
//     the platform's cached machine, further runs must not allocate.
//  3. Replay equivalence: the decode-once trace-replay fast path must
//     produce byte-identical results to full interpretation, run by
//     run, for keyed workloads on both platform builds.
package repro

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/tvca"
)

// goldenCycles holds the first 32 per-run cycle counts of the TVCA
// campaign (8-frame reduced config, BaseSeed 42, run seeds via
// DeriveRunSeed) as measured on the seed-revision simulator. These
// values are load-bearing: every pWCET figure in the paper replication
// is a function of such series.
var goldenCycles = map[string][32]uint64{
	"DET": {
		274108, 274110, 274108, 274108, 274109, 274109, 274110, 274110,
		274184, 274110, 274109, 274110, 274108, 274110, 274109, 274109,
		274109, 274108, 274108, 274110, 274110, 274110, 274109, 274109,
		274110, 274108, 274110, 274109, 274107, 274110, 274109, 274108,
	},
	"RAND": {
		274913, 274668, 268679, 273524, 278908, 279268, 279386, 276072,
		272700, 283549, 276174, 278044, 272165, 278784, 271816, 278198,
		276290, 287184, 273482, 272410, 273029, 275831, 274793, 285034,
		272507, 272000, 271933, 274997, 274918, 281580, 268458, 270112,
	},
}

func goldenApp(t *testing.T) *tvca.App {
	t.Helper()
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestGoldenCampaignCycles pins the exact cycle counts of the first 32
// TVCA runs on both platform builds. A failure here means a change
// altered simulated timing — which invalidates every measured
// distribution — not merely a performance property.
func TestGoldenCampaignCycles(t *testing.T) {
	app := goldenApp(t)
	for _, pc := range []platform.Config{platform.DET(), platform.RAND()} {
		want, ok := goldenCycles[pc.Name]
		if !ok {
			t.Fatalf("no golden series for platform %q", pc.Name)
		}
		p, err := platform.New(pc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(want); i++ {
			r, err := p.ExecuteRun(context.Background(), app, i, platform.DeriveRunSeed(42, i))
			if err != nil {
				t.Fatalf("%s run %d: %v", pc.Name, i, err)
			}
			if r.Cycles != want[i] {
				t.Errorf("%s run %d: got %d cycles, golden %d — simulated timing changed",
					pc.Name, i, r.Cycles, want[i])
			}
		}
	}
}

// TestSteadyStateZeroAlloc asserts the allocation-free run loop: once
// the platform has a cached machine and has recorded the traces it
// keeps for the workload, a full measurement run — reseed, flush, trace
// key, reload and interpret, or replay, drain — performs zero heap
// allocations. It holds for workloads built directly (8- and 16-frame
// TVCA, whose runs both replay and interpret) and for ones built from a
// spec through the fabric registry (the path pwcetd, the matrix and
// remote executors take): a 4-frame TVCA, whose runs all share one key
// (recorded on run 1, replayed from run 2), and a crc32, which reloads
// its machine. It holds under a cancelable context too, as every
// campaign session's runs are (the board binds its context poll once,
// not per run). Each case warms until it has gone 100 runs without
// recording, and no run of the measured window may record: a recording
// run allocates, and AllocsPerRun's integer average could hide one.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4
	params, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, err := fabric.BuiltinRegistry().Build(fabric.WorkloadSpec{Kind: "tvca", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	crc, err := fabric.BuiltinRegistry().Build(fabric.WorkloadSpec{Kind: "crc32", Params: json.RawMessage(`{"Bytes":1024,"Seed":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Frames = 16
	app16, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		w    platform.Workload
		ctx  context.Context
	}{
		{"direct", goldenApp(t), context.Background()},
		{"direct-16-frames", app16, context.Background()},
		{"registry", built, context.Background()},
		{"registry-crc32", crc, context.Background()},
		{"direct-cancelable", goldenApp(t), canceled},
	} {
		p, err := platform.New(platform.RAND())
		if err != nil {
			t.Fatal(err)
		}
		run := 0
		step := func() {
			if _, err := p.ExecuteRun(tc.ctx, tc.w, run, platform.DeriveRunSeed(42, run)); err != nil {
				t.Fatal(err)
			}
			run++
		}
		const quiet, maxWarm = 100, 3000
		for last := 0; run-last < quiet; {
			if run == maxWarm {
				t.Fatalf("%s: still recording after %d runs", tc.name, run)
			}
			rec := p.BoardStats().Recordings
			step()
			if p.BoardStats().Recordings != rec {
				last = run
			}
		}
		st := p.BoardStats()
		avg := testing.AllocsPerRun(50, step)
		d := p.BoardStats().Sub(st)
		if d.Recordings != 0 {
			t.Errorf("%s: %d of the %d measured runs recorded", tc.name, d.Recordings, d.ReplayRuns+d.InterpretRuns)
		}
		if avg != 0 {
			t.Errorf("%s: steady-state run allocates: %.1f allocs/run, want 0", tc.name, avg)
		}
		t.Logf("%s: warmed %d runs (%d recordings); measured %d replayed + %d interpreted runs",
			tc.name, int(st.ReplayRuns+st.InterpretRuns), st.Recordings, d.ReplayRuns, d.InterpretRuns)
	}
}

// TestReplayBitIdentical runs a run-invariant workload (MatMul declares
// the empty trace key) through the decode-once replay fast path and through
// full interpretation, on both platform builds, and requires every run
// to match exactly in cycles, instructions and path. 600 runs cover a
// full reduced-campaign's worth of placement/replacement randomization.
func TestReplayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("600-run replay equivalence campaign")
	}
	w := kernels.MatMul{N: 12, Seed: 7}
	for _, pc := range []platform.Config{platform.DET(), platform.RAND()} {
		fast, err := platform.New(pc)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := platform.New(pc)
		if err != nil {
			t.Fatal(err)
		}
		slow.SetReplay(false)
		for i := 0; i < 600; i++ {
			seed := platform.DeriveRunSeed(42, i)
			fr, err := fast.ExecuteRun(context.Background(), w, i, seed)
			if err != nil {
				t.Fatalf("%s replay run %d: %v", pc.Name, i, err)
			}
			sr, err := slow.ExecuteRun(context.Background(), w, i, seed)
			if err != nil {
				t.Fatalf("%s interpreted run %d: %v", pc.Name, i, err)
			}
			if fr != sr {
				t.Fatalf("%s run %d: replay %+v != interpreted %+v", pc.Name, i, fr, sr)
			}
		}
	}
}

// TestReplayTwinCampaign runs the same campaigns on replaying boards
// and on boards that interpret every run, and requires equal results
// and equal summed cache, TLB and FPU counters: per-run counter deltas
// depend only on the run, so the sums match however the campaign
// spread its runs over its boards. The campaigns are a run-invariant
// workload and a keyed one (16-frame TVCA, whose runs replay once
// their key recurs on their board) at Parallel 2; each replaying board
// of the keyed campaign must replay runs of two keys, so that choosing
// the wrong recording of a board's set is caught too.
func TestReplayTwinCampaign(t *testing.T) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 16
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		w    platform.Workload
		runs int
	}{
		{kernels.MatMul{N: 8, Seed: 11}, 20},
		{app, 60},
	} {
		fast, fr := twinCampaign(t, tc.w, tc.runs, true)
		slow, sr := twinCampaign(t, tc.w, tc.runs, false)
		if len(fr.Results) != tc.runs || len(sr.Results) != tc.runs {
			t.Fatalf("%s: %d and %d results, want %d", tc.w.Name(), len(fr.Results), len(sr.Results), tc.runs)
		}
		for i := range fr.Results {
			if fr.Results[i] != sr.Results[i] {
				t.Fatalf("%s run %d: replaying boards %+v, interpreting boards %+v",
					tc.w.Name(), i, fr.Results[i], sr.Results[i])
			}
		}
		fs, ss := substrate(fast), substrate(slow)
		if fs.ReplayRuns == 0 || ss.ReplayRuns != 0 {
			t.Errorf("%s: %d runs replayed on the replaying boards, %d on the interpreting ones",
				tc.w.Name(), fs.ReplayRuns, ss.ReplayRuns)
		}
		fs.ReplayRuns, fs.InterpretRuns, fs.Recordings = 0, 0, 0
		ss.ReplayRuns, ss.InterpretRuns, ss.Recordings = 0, 0, 0
		if fs != ss {
			t.Errorf("%s: summed counters %+v, interpreted %+v", tc.w.Name(), fs, ss)
		}
		if tc.w != platform.Workload(app) {
			continue
		}
		for i, b := range fast {
			st := b.BoardStats()
			if len(b.keys) < 2 {
				t.Errorf("board %d: replayed %d runs of %d keys (%d runs, %d recordings), want runs of two keys",
					i, st.ReplayRuns, len(b.keys), st.ReplayRuns+st.InterpretRuns, st.Recordings)
			}
		}
	}
}

// twinCampaign runs a campaign of w over boards that replay or, with
// replay false, interpret every run, and returns the boards and the
// result.
func twinCampaign(t *testing.T, w platform.Workload, runs int, replay bool) ([]*replayKeys, *platform.CampaignResult) {
	t.Helper()
	var mu sync.Mutex
	var boards []*replayKeys
	newBoard := func() (platform.Board, error) {
		p, err := platform.New(platform.RAND())
		if err != nil {
			return nil, err
		}
		p.SetReplay(replay)
		b := &replayKeys{Platform: p, w: w, keys: make(map[string]int)}
		mu.Lock()
		boards = append(boards, b)
		mu.Unlock()
		return b, nil
	}
	res, err := platform.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: runs, BatchSize: 20, Parallel: 2, BaseSeed: 7, NewBoard: newBoard}, nil)
	if err != nil {
		t.Fatalf("%s campaign (replay %v): %v", w.Name(), replay, err)
	}
	return boards, res
}

// substrate sums the boards' counters.
func substrate(boards []*replayKeys) platform.BoardStats {
	var sum platform.BoardStats
	for _, b := range boards {
		st := b.BoardStats()
		addCounters(reflect.ValueOf(&sum).Elem(), reflect.ValueOf(st))
	}
	return sum
}

// addCounters adds every counter of src, a struct of uint64 counters
// and such structs, to dst of the same type.
func addCounters(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		if d, s := dst.Field(i), src.Field(i); d.Kind() == reflect.Struct {
			addCounters(d, s)
		} else {
			d.SetUint(d.Uint() + s.Uint())
		}
	}
}

// replayKeys is a board that counts the runs it replays by trace key.
type replayKeys struct {
	*platform.Platform
	w    platform.Workload
	keys map[string]int
}

func (b *replayKeys) ExecuteRun(ctx context.Context, w platform.Workload, run int, seed uint64) (platform.RunResult, error) {
	before := b.BoardStats().ReplayRuns
	res, err := b.Platform.ExecuteRun(ctx, w, run, seed)
	if err == nil && b.BoardStats().ReplayRuns != before {
		key, _ := b.w.(platform.TraceKeyer).TraceKey(nil, run)
		b.keys[string(key)]++
	}
	return res, err
}
