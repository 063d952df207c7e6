package mbpta_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/wal"
	"repro/pkg/mbpta"
)

// specApp builds the reduced TVCA through the fabric workload registry,
// so the same workload instance is executable locally, on the
// in-process fabric, and on remote executors (spec-backed).
func specApp(t *testing.T) mbpta.Workload {
	t.Helper()
	cfg := mbpta.DefaultTVCAConfig()
	cfg.Frames = 8
	params, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fabric.BuiltinRegistry().Build(fabric.WorkloadSpec{Kind: "tvca", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// parityOpts is the fixed campaign spec shared by every execution mode.
func parityOpts(extra ...mbpta.CampaignOption) []mbpta.CampaignOption {
	opts := []mbpta.CampaignOption{
		mbpta.WithRuns(120),
		mbpta.WithBatchSize(20),
		mbpta.WithBaseSeed(42),
		mbpta.MeasureOnly(),
	}
	return append(opts, extra...)
}

// TestFingerprintParityAcrossExecutionModes is the acceptance invariant
// of the campaign fabric: for a fixed spec, the report fingerprint is
// byte-equal across (a) 1-worker in-process execution, (b) the
// N-executor fabric, (c) the fabric served by remote executors with one
// executor killed mid-lease and its lease re-leased, and (d) a
// journaled campaign killed at a barrier and resumed.
func TestFingerprintParityAcrossExecutionModes(t *testing.T) {
	app := specApp(t)
	ctx := context.Background()

	// (a) Single-process, one worker: the ground truth.
	ref, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app,
		parityOpts(mbpta.WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	refFP := ref.Fingerprint()

	// (b) In-process fabric, several executors.
	t.Run("fabric-in-process", func(t *testing.T) {
		pool := fabric.NewPool(fabric.Config{Executors: 4})
		defer pool.Close()
		rep, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app,
			parityOpts(mbpta.WithExecutorPool(pool))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Fingerprint(); got != refFP {
			t.Fatalf("fabric fingerprint diverges:\n got %s\nwant %s", got, refFP)
		}
	})

	// (c) Remote executors, one killed mid-lease.
	t.Run("fabric-remote-killed-executor", func(t *testing.T) {
		pool := fabric.NewPool(fabric.Config{Executors: -1}) // remote-only
		defer pool.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan struct{})
		go func() {
			defer close(serveDone)
			pool.ServeExecutors(ln)
		}()
		defer func() { ln.Close(); <-serveDone }()

		campDone := make(chan error, 1)
		var rep *mbpta.CampaignReport
		go func() {
			var err error
			rep, err = mbpta.Campaign(ctx, mbpta.RANDPlatform(), app,
				parityOpts(mbpta.WithExecutorPool(pool))...)
			campDone <- err
		}()

		// The doomed executor: a real executor over a connection with a
		// small write budget, so it dies while streaming its first
		// lease's run records back.
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		doomed := &budgetConn{Conn: conn, budget: 500}
		execDone := make(chan error, 1)
		go func() { execDone <- fabric.ExecuteConn(ctx, doomed, nil) }()
		select {
		case <-execDone: // died on budget exhaustion, lease abandoned
		case <-time.After(30 * time.Second):
			t.Fatal("doomed executor did not die")
		}

		// A healthy executor picks up the re-leased range and the rest.
		execCtx, cancelExec := context.WithCancel(ctx)
		healthyDone := make(chan struct{})
		go func() {
			defer close(healthyDone)
			fabric.RunExecutor(execCtx, ln.Addr().String(), nil)
		}()
		defer func() { cancelExec(); <-healthyDone }()

		select {
		case err := <-campDone:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("campaign did not recover from killed executor")
		}
		if got := rep.Fingerprint(); got != refFP {
			t.Fatalf("killed-executor fingerprint diverges:\n got %s\nwant %s", got, refFP)
		}
	})

	// (d) Journaled locally, killed at a mid-campaign barrier, resumed.
	t.Run("journal-resumed", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "campaign.wal")
		if _, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app,
			parityOpts(mbpta.WithParallelism(3), mbpta.WithJournal(journal))...); err != nil {
			t.Fatal(err)
		}
		rec, err := wal.Recover(journal)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Checkpoints) < 3 {
			t.Fatalf("%d checkpoints, want >= 3", len(rec.Checkpoints))
		}
		killed := truncateCopy(t, journal, rec.Checkpoints[2].End)
		rep, err := mbpta.Resume(ctx, mbpta.RANDPlatform(), app, killed,
			parityOpts(mbpta.WithParallelism(3))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Fingerprint(); got != refFP {
			t.Fatalf("resumed fingerprint diverges:\n got %s\nwant %s", got, refFP)
		}
	})
}

// TestFaultFingerprintParityAcrossExecutionModes: a mitigated (ECC)
// fault campaign fingerprints identically on (a) one local worker, (b)
// the in-process fabric, and (c) a remote-only fabric with a remote
// executor connected. Fault injection decorates the boards, which a
// remote executor cannot rebuild from the spec, so (c) must run the
// whole campaign on the pool's in-process executors: the remote
// executor may not build the workload even once, while a plain
// campaign on the same pool afterwards does reach it.
func TestFaultFingerprintParityAcrossExecutionModes(t *testing.T) {
	app := specApp(t)
	ctx := context.Background()
	faultOpts := func(extra ...mbpta.CampaignOption) []mbpta.CampaignOption {
		return parityOpts(append(extra, mbpta.WithFaultInjection(mbpta.FaultConfig{
			Rate:       0.5,
			Mitigation: mbpta.Mitigation{Kind: mbpta.MitigationECC},
		}))...)
	}

	// (a) Single-process, one worker: the ground truth.
	ref, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app, faultOpts(mbpta.WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Faults.Injected == 0 || ref.Faults.MitigatedTotal() == 0 {
		t.Fatalf("reference campaign injected or corrected nothing: %s", ref.Faults)
	}
	refFP := ref.Fingerprint()

	// (b) In-process fabric, several executors.
	t.Run("fabric-in-process", func(t *testing.T) {
		pool := fabric.NewPool(fabric.Config{Executors: 4})
		defer pool.Close()
		rep, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app, faultOpts(mbpta.WithExecutorPool(pool))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Fingerprint(); got != refFP {
			t.Fatalf("fabric fingerprint diverges:\n got %s\nwant %s", got, refFP)
		}
	})

	// (c) Remote-only fabric with a remote executor connected.
	t.Run("fabric-remote-executor", func(t *testing.T) {
		pool := fabric.NewPool(fabric.Config{Executors: -1})
		defer pool.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan struct{})
		go func() {
			defer close(serveDone)
			pool.ServeExecutors(ln)
		}()
		defer func() { ln.Close(); <-serveDone }()

		// The remote executor's registry counts the session specs it is
		// sent: one workload build per session it serves a lease of.
		var builds atomic.Int64
		reg := fabric.NewRegistry()
		reg.Register("tvca", func(params json.RawMessage) (mbpta.Workload, error) {
			builds.Add(1)
			return fabric.BuiltinRegistry().Build(fabric.WorkloadSpec{Kind: "tvca", Params: params})
		})
		execCtx, cancelExec := context.WithCancel(ctx)
		execDone := make(chan struct{})
		go func() {
			defer close(execDone)
			fabric.RunExecutor(execCtx, ln.Addr().String(), reg)
		}()
		defer func() { cancelExec(); <-execDone }()

		rep, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app, faultOpts(mbpta.WithExecutorPool(pool))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Fingerprint(); got != refFP {
			t.Fatalf("remote-executor fabric fingerprint diverges:\n got %s\nwant %s", got, refFP)
		}
		if n := builds.Load(); n != 0 {
			t.Fatalf("remote executor served leases of the fault campaign (%d session builds)", n)
		}
		if _, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app, parityOpts(mbpta.WithExecutorPool(pool))...); err != nil {
			t.Fatal(err)
		}
		if builds.Load() == 0 {
			t.Fatal("remote executor never served the plain campaign: the check above proves nothing")
		}
	})
}

// budgetConn severs the connection after budget written bytes — a
// deterministic stand-in for an executor killed mid-stream.
type budgetConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

func (c *budgetConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	budget := c.budget
	c.mu.Unlock()
	if budget <= 0 {
		c.Conn.Close()
		return 0, errors.New("budgetConn: write budget exhausted")
	}
	if len(p) > budget {
		n, _ := c.Conn.Write(p[:budget])
		c.Conn.Close()
		c.setBudget(0)
		return n, errors.New("budgetConn: write budget exhausted")
	}
	n, err := c.Conn.Write(p)
	c.setBudget(budget - n)
	return n, err
}

func (c *budgetConn) setBudget(n int) {
	c.mu.Lock()
	c.budget = n
	c.mu.Unlock()
}
