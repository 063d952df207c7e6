package mbpta_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/pkg/mbpta"
)

// teleCampaign runs a telemetry-instrumented campaign and returns the
// registry snapshot plus the JSONL-serialized event stream.
func teleCampaign(t *testing.T, parallel int) (map[string]float64, []byte) {
	t.Helper()
	reg := mbpta.NewTelemetry()
	var log bytes.Buffer
	sink := telemetry.NewJSONLSink(&log)
	reg.Attach(sink)
	_, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), smallApp(t),
		mbpta.WithRuns(300),
		mbpta.WithBatchSize(50),
		mbpta.WithBaseSeed(7),
		mbpta.WithParallelism(parallel),
		mbpta.WithTelemetry(reg),
		mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), log.Bytes()
}

// wallClock reports whether a metric measures the host rather than the
// simulated platform — with the host-execution instruments below, the
// only ones exempt from the parallelism-invariance contract (DESIGN.md
// §11).
func wallClock(name string) bool {
	return name == "campaign_runs_per_sec" ||
		strings.HasPrefix(name, "campaign_batch_seconds") ||
		name == "campaign_run_retries_total" ||
		name == "campaign_run_timeouts_total"
}

// hostExecution reports whether a metric counts how the host executed
// the runs: each board replays the runs that share its own first keyed
// run's trace key, so the replay/interpret split depends on which board
// ran which run. Only their sum, the runs executed, is invariant.
func hostExecution(name string) bool {
	return name == "sim_replay_runs_total" || name == "sim_interpret_runs_total" ||
		name == "sim_trace_recordings_total"
}

// TestTelemetryParallelismInvariance: for a fixed seed, every
// deterministic instrument and the entire event stream (byte for byte)
// must be identical whether the campaign ran on 1 worker or 8, and the
// replayed and interpreted runs must add up to the runs executed.
func TestTelemetryParallelismInvariance(t *testing.T) {
	snap1, log1 := teleCampaign(t, 1)
	snap8, log8 := teleCampaign(t, 8)

	for _, snap := range []map[string]float64{snap1, snap8} {
		if got := snap["sim_replay_runs_total"] + snap["sim_interpret_runs_total"]; got != 300 {
			t.Errorf("replayed + interpreted runs = %v, want the 300 runs executed", got)
		}
	}
	for name, v1 := range snap1 {
		if wallClock(name) || hostExecution(name) {
			continue
		}
		if v8, ok := snap8[name]; !ok || v8 != v1 {
			t.Errorf("metric %s: parallel=1 %v, parallel=8 %v", name, v1, snap8[name])
		}
	}
	for name := range snap8 {
		if _, ok := snap1[name]; !ok && !wallClock(name) && !hostExecution(name) {
			t.Errorf("metric %s only exists at parallel=8", name)
		}
	}

	if !bytes.Equal(log1, log8) {
		l1 := strings.Split(string(log1), "\n")
		l8 := strings.Split(string(log8), "\n")
		for i := 0; i < len(l1) && i < len(l8); i++ {
			if l1[i] != l8[i] {
				t.Fatalf("event streams diverge at line %d:\n parallel=1: %s\n parallel=8: %s", i+1, l1[i], l8[i])
			}
		}
		t.Fatalf("event streams differ in length: %d vs %d lines", len(l1), len(l8))
	}

	// Sanity: the stream must actually contain the campaign narrative.
	evs, err := telemetry.ReadEvents(bytes.NewReader(log1))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds["campaign_start"] != 1 || kinds["campaign_end"] != 1 {
		t.Errorf("campaign_start/end = %d/%d, want 1/1", kinds["campaign_start"], kinds["campaign_end"])
	}
	if kinds["run"] != 300 {
		t.Errorf("run events = %d, want 300", kinds["run"])
	}
	if kinds["batch"] != 6 || kinds["analysis"] != 6 {
		t.Errorf("batch/analysis events = %d/%d, want 6/6", kinds["batch"], kinds["analysis"])
	}
}

// TestTelemetryDisabledBitIdentity: a campaign without telemetry and
// one with it enabled must produce bit-identical measurements — the
// observability layer observes, it never perturbs.
func TestTelemetryDisabledBitIdentity(t *testing.T) {
	app := smallApp(t)
	run := func(opts ...mbpta.CampaignOption) *mbpta.CampaignReport {
		base := []mbpta.CampaignOption{
			mbpta.WithRuns(120),
			mbpta.WithBatchSize(40),
			mbpta.WithBaseSeed(11),
			mbpta.MeasureOnly(),
		}
		rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
			append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	plain := run()
	instrumented := run(mbpta.WithTelemetry(mbpta.NewTelemetry()))

	if len(plain.Campaign.Results) != len(instrumented.Campaign.Results) {
		t.Fatalf("run counts differ: %d vs %d",
			len(plain.Campaign.Results), len(instrumented.Campaign.Results))
	}
	for i := range plain.Campaign.Results {
		if plain.Campaign.Results[i] != instrumented.Campaign.Results[i] {
			t.Fatalf("run %d differs with telemetry enabled:\n %+v\n %+v",
				i, plain.Campaign.Results[i], instrumented.Campaign.Results[i])
		}
	}
}
