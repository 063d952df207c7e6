package platform

import (
	"context"
	"math"
	"testing"

	"repro/internal/telemetry"
)

// TestStreamTelemetryHarvest runs a telemetry-enabled campaign with
// worker parallelism (this is the configuration `make race` exercises)
// and checks the harvested instruments against ground truth from the
// campaign result and the substrate accounting identities.
func TestStreamTelemetryHarvest(t *testing.T) {
	const runs = 40
	app := smallTVCA(t)
	reg := telemetry.New()
	ring := telemetry.NewRingSink(256)
	reg.Attach(ring)

	c, err := StreamCampaign(context.Background(), RAND(), app,
		StreamOptions{MaxRuns: runs, BatchSize: 8, Parallel: 4, BaseSeed: 5, Telemetry: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var cycles, instructions uint64
	for _, r := range c.Results {
		cycles += r.Cycles
		instructions += r.Instructions
	}
	snap := reg.Snapshot()
	if got := snap["campaign_runs_total"]; got != runs {
		t.Errorf("campaign_runs_total = %v, want %d", got, runs)
	}
	if got := snap["campaign_batches_total"]; got != 5 {
		t.Errorf("campaign_batches_total = %v, want 5", got)
	}
	if got := snap["sim_cycles_total"]; got != float64(cycles) {
		t.Errorf("sim_cycles_total = %v, want %d", got, cycles)
	}
	if got := snap["sim_instructions_total"]; got != float64(instructions) {
		t.Errorf("sim_instructions_total = %v, want %d", got, instructions)
	}
	if got := snap["sim_ipc"]; math.Abs(got-float64(instructions)/float64(cycles)) > 1e-12 {
		t.Errorf("sim_ipc = %v, want %v", got, float64(instructions)/float64(cycles))
	}
	// The TVCA workload touches every substrate level; the harvested
	// counters must be populated and the ratio gauges in (0, 1].
	for _, name := range []string{
		"sim_il1_hits_total", "sim_dl1_hits_total", "sim_dl1_misses_total",
		"sim_itlb_hits_total", "sim_dtlb_hits_total", "sim_dl1_mru_hits_total",
	} {
		if snap[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, snap[name])
		}
	}
	for _, name := range []string{
		"sim_il1_hit_ratio", "sim_dl1_hit_ratio",
		"sim_itlb_hit_ratio", "sim_dtlb_hit_ratio",
		"sim_il1_mru_hit_ratio", "sim_dl1_mru_hit_ratio",
	} {
		if v := snap[name]; v <= 0 || v > 1 {
			t.Errorf("%s = %v, want in (0, 1]", name, v)
		}
	}
	// Hit/MRU accounting: the MRU fast path is a subset of all hits.
	for _, lvl := range []string{"il1", "dl1"} {
		hits := snap["sim_"+lvl+"_hits_total"] + snap["sim_"+lvl+"_write_hits_total"]
		if mru := snap["sim_"+lvl+"_mru_hits_total"]; mru > hits {
			t.Errorf("%s: MRU hits %v exceed total hits %v", lvl, mru, hits)
		}
	}
	// Every run of this campaign interprets or replays — never both.
	if got := snap["sim_replay_runs_total"] + snap["sim_interpret_runs_total"]; got != runs {
		t.Errorf("replay+interpret = %v, want %d", got, runs)
	}

	// The event stream must cover the whole campaign in order.
	evs := ring.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	if evs[0].Kind != "campaign_start" || evs[len(evs)-1].Kind != "campaign_end" {
		t.Errorf("stream brackets = %s..%s, want campaign_start..campaign_end",
			evs[0].Kind, evs[len(evs)-1].Kind)
	}
	runEvents, lastRun := 0, -1
	for i, ev := range evs {
		if ev.Seq != evs[0].Seq+uint64(i) {
			t.Fatalf("event %d: seq %d breaks the contiguous order", i, ev.Seq)
		}
		if ev.Kind == "run" {
			runEvents++
			if ev.Run <= lastRun {
				t.Fatalf("run events out of order: %d after %d", ev.Run, lastRun)
			}
			lastRun = ev.Run
		}
	}
	if runEvents != runs {
		t.Errorf("run events = %d, want %d", runEvents, runs)
	}
}

// TestStreamTelemetryNilRegistry: the zero-config path must stay
// telemetry-free end to end (the allocation and golden-output
// guarantees elsewhere depend on it).
func TestStreamTelemetryNilRegistry(t *testing.T) {
	app := smallTVCA(t)
	c, err := StreamCampaign(context.Background(), RAND(), app,
		StreamOptions{MaxRuns: 5, BatchSize: 5, Parallel: 2, BaseSeed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != 5 {
		t.Fatalf("%d runs", len(c.Results))
	}
}

// TestBoardStatsSub covers the delta arithmetic the barrier harvest
// rests on.
func TestBoardStatsSub(t *testing.T) {
	app := smallTVCA(t)
	p, err := New(RAND())
	if err != nil {
		t.Fatal(err)
	}
	before := p.BoardStats()
	if _, err := p.ExecuteRun(context.Background(), app, 0, 1); err != nil {
		t.Fatal(err)
	}
	after := p.BoardStats()
	d := after.Sub(before)
	if d.InterpretRuns+d.ReplayRuns != 1 {
		t.Errorf("run delta = %d interpret + %d replay, want 1 total", d.InterpretRuns, d.ReplayRuns)
	}
	if d.IL1.Hits == 0 || d.DL1.Hits == 0 {
		t.Errorf("cache deltas empty: %+v", d)
	}
	if again := after.Sub(after); again != (BoardStats{}) {
		t.Errorf("self-delta = %+v, want zero", again)
	}
}
