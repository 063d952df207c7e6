package main

import (
	"math"
	"testing"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "bench.campaign", Start: 0, End: 100},
		// Two children overlapping each other (runs on two goroutines)
		// cover [10,60] once; the third sticks out past the parent's end
		// and counts only up to it.
		{Trace: 1, ID: 2, Parent: 1, Name: "platform.run", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "platform.run", Start: 30, End: 60},
		{Trace: 1, ID: 4, Parent: 1, Name: "core.observe", Start: 90, End: 120},
		// A grandchild is charged to its own parent, not the root.
		{Trace: 1, ID: 5, Parent: 2, Name: "wal.log", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	totals := spanTotals(spans)
	if got := totals["platform.run"]; math.Abs(got-55e-9) > 1e-18 {
		t.Errorf("platform.run total %g s, want 55e-9", got)
	}
}

func TestUnattributedSkipsReplay(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "bench.cell", Start: 0, End: 100},
		{Trace: 1, ID: 3, Parent: 2, Name: "core.observe", Start: 0, End: 90},
		{Trace: 1, ID: 4, Parent: 2, Name: "wal.barrier", Start: 92, End: 97},
		// The replay happens after the operations and is not glue.
		{Trace: 2, ID: 5, Name: replayRoot, Start: 200, End: 400},
		{Trace: 2, ID: 6, Parent: 5, Name: "stats.iid", Start: 200, End: 210},
	}
	if got := unattributed(spans); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("unattributed = %g, want 0.05", got)
	}
}
