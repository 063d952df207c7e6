package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunUsageErrorsToStderrOnly(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-resume"}, // -resume requires -journal
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitError {
			t.Errorf("%v: exit %d, want %d", args, code, exitError)
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: nothing on stderr", args)
		}
		if strings.Contains(stdout.String(), "tvca:") {
			t.Errorf("%v: error text leaked to stdout:\n%s", args, stdout.String())
		}
	}
}

func TestRunSmallCaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs measurement campaigns")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-runs", "600", "-save-dir", dir}, &stdout, &stderr)
	switch code {
	case 0:
		if stderr.Len() != 0 {
			t.Errorf("exit 0 but stderr non-empty: %s", stderr.String())
		}
	case exitIIDGate:
		if !strings.Contains(stderr.String(), "i.i.d. gate") {
			t.Errorf("exit 2 without gate message on stderr: %s", stderr.String())
		}
		return // gate rejection ends the pipeline before CSV export
	default:
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "TVCA case study: 600 runs per campaign") {
		t.Errorf("banner missing:\n%s", out)
	}
	for _, f := range []string{"tvca_rand.csv", "tvca_det.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("campaign CSV %s not written: %v", f, err)
		}
	}
}

func TestRunJournalAndResumeFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs measurement campaigns")
	}
	journal := filepath.Join(t.TempDir(), "tvca.wal")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-runs", "600", "-journal", journal}, &stdout, &stderr)
	if code != 0 && code != exitIIDGate {
		t.Fatalf("journaled run: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "durability") {
		t.Errorf("durability table missing:\n%s", stdout.String())
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal not written: %v", err)
	}
	// Resuming the completed journal re-derives the campaign without
	// re-executing it and must exit under the same contract.
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-runs", "600", "-journal", journal, "-resume"}, &stdout, &stderr)
	if code != 0 && code != exitIIDGate {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, stderr.String())
	}
}

// TestPerTaskReportPinned pins the per-task report (-per-task) of the
// default case study at its 500-run floor, byte for byte.
func TestPerTaskReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a measurement campaign")
	}
	env, err := experiments.NewEnv(experiments.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := perTaskReport(&out, env, 500); err != nil {
		t.Fatal(err)
	}
	const want = `
per-task pWCET (worst job per run, 500 runs):
  actuator-x   jitterless: exact WCET 1670 cycles
  actuator-y   jitterless: exact WCET 1939 cycles
  sensor-acq   HWM 44213, pWCET(1e-12) 46788 cycles
`
	if out.String() != want {
		t.Errorf("per-task report changed:\n%s\nwant:\n%s", out.String(), want)
	}
}
