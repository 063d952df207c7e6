package fabric

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/wal"
)

// startCoordinator wires a pool to a loopback listener and returns the
// dial address. The listener and serve loop are torn down with the test.
func startCoordinator(t *testing.T, pool *Pool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pool.ServeExecutors(ln) }()
	t.Cleanup(func() {
		ln.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeExecutors: %v", err)
		}
	})
	return ln.Addr().String()
}

// startExecutor runs a remote executor against addr for the test's life.
func startExecutor(t *testing.T, addr string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunExecutor(ctx, addr, nil)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

func TestRemoteExecutorRoundTrip(t *testing.T) {
	// Executors: -1 leaves spec-backed sessions to remote executors
	// only, so every run below provably crossed the wire.
	w := testWorkload(t)
	ref := reference(t, w, 40, 10, 7)

	pool := NewPool(Config{Executors: -1})
	defer pool.Close()
	addr := startCoordinator(t, pool)
	startExecutor(t, addr)
	startExecutor(t, addr)

	got, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 40, BatchSize: 10, BaseSeed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ref, got)
}

func TestRemoteExecutorKilledMidLeaseBitIdentical(t *testing.T) {
	// A remote executor that executes part of its lease and then dies
	// must not perturb the campaign: the lease re-queues seed-preserved,
	// the partial results merge idempotently, and the final series is
	// bit-identical to an uninterrupted single-process run.
	w := testWorkload(t)
	ref := reference(t, w, 40, 10, 11)

	pool := NewPool(Config{Executors: -1})
	defer pool.Close()
	addr := startCoordinator(t, pool)

	result := make(chan error, 1)
	var got *platform.CampaignResult
	go func() {
		var err error
		got, err = pool.StreamCampaign(context.Background(), platform.RAND(), w,
			platform.StreamOptions{MaxRuns: 40, BatchSize: 10, BaseSeed: 11}, nil)
		result <- err
	}()

	// The doomed executor: speaks the real protocol, executes the first
	// two runs of its lease correctly, then drops the connection.
	leaseTaken := runDoomedExecutor(t, addr, 2)
	<-leaseTaken

	// Now the healthy executor finishes the campaign, including the
	// re-queued remainder of the doomed lease.
	startExecutor(t, addr)

	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not recover from killed executor")
	}
	assertSameResults(t, ref, got)
}

// runDoomedExecutor connects a protocol-conformant executor that
// executes only partialRuns runs of its first lease and then severs the
// connection. The returned channel closes once the connection is dead
// (lease abandoned coordinator-side shortly after).
func runDoomedExecutor(t *testing.T, addr string, partialRuns int) <-chan struct{} {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	dead := make(chan struct{})
	go func() {
		defer close(dead)
		defer conn.Close()
		bw := bufio.NewWriter(conn)
		if err := writeJSONFrame(bw, kindHello, helloMsg{V: protocolVersion}); err != nil {
			t.Errorf("doomed executor hello: %v", err)
			return
		}
		if err := bw.Flush(); err != nil {
			t.Errorf("doomed executor flush: %v", err)
			return
		}
		fr := wal.NewFrameReader(conn)
		var spec SessionSpec
		for {
			kind, payload, err := fr.Next()
			if err != nil {
				t.Errorf("doomed executor read: %v", err)
				return
			}
			if kind == kindSpec {
				if err := json.Unmarshal(payload, &spec); err != nil {
					t.Errorf("doomed executor spec: %v", err)
					return
				}
				continue
			}
			if kind != kindLease {
				t.Errorf("doomed executor: unexpected frame %#x", kind)
				return
			}
			var msg leaseMsg
			if err := json.Unmarshal(payload, &msg); err != nil {
				t.Errorf("doomed executor lease: %v", err)
				return
			}
			wl, err := BuiltinRegistry().Build(spec.Workload)
			if err != nil {
				t.Errorf("doomed executor build: %v", err)
				return
			}
			board, err := platform.New(spec.Platform)
			if err != nil {
				t.Errorf("doomed executor platform: %v", err)
				return
			}
			for run := msg.Start; run < msg.Start+partialRuns && run < msg.End; run++ {
				r, err := platform.SafeExecuteRun(context.Background(), board, wl,
					spec.BaseSeed, run, platform.ExecPolicy{})
				if err != nil {
					t.Errorf("doomed executor run %d: %v", run, err)
					return
				}
				payload, err := wal.EncodeRunRecord(nil, wal.RunRecord{
					Run:          run,
					Seed:         platform.DeriveRunSeed(spec.BaseSeed, run),
					Cycles:       r.Cycles,
					Instructions: r.Instructions,
					Faults:       r.Faults,
					Path:         r.Path,
					Outcome:      r.Outcome,
				})
				if err != nil {
					t.Errorf("doomed executor encode: %v", err)
					return
				}
				if err := wal.WriteFrame(bw, wal.KindRun, payload); err != nil {
					t.Errorf("doomed executor write: %v", err)
					return
				}
			}
			if err := bw.Flush(); err != nil {
				t.Errorf("doomed executor flush: %v", err)
			}
			return // die without leaseDone: connection drops
		}
	}()
	return dead
}

func TestRemoteStragglerReleased(t *testing.T) {
	// A remote executor that takes a lease and stalls forever: the
	// straggler sweep re-queues the lease after the timeout and the
	// in-process executor finishes the campaign, bit-identically.
	w := testWorkload(t)
	ref := reference(t, w, 60, 10, 5)

	pool := NewPool(Config{Executors: 1, LeaseTimeout: 200 * time.Millisecond})
	defer pool.Close()
	addr := startCoordinator(t, pool)

	// The staller: handshakes, swallows whatever the coordinator sends,
	// never answers.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := writeJSONFrame(bw, kindHello, helloMsg{V: protocolVersion}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()

	got, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 60, BatchSize: 10, BaseSeed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ref, got)
}

func TestRegistryUnknownKind(t *testing.T) {
	if _, err := BuiltinRegistry().Build(WorkloadSpec{Kind: "no-such-kernel"}); err == nil {
		t.Fatal("unknown kind built")
	}
	kinds := BuiltinRegistry().Kinds()
	if len(kinds) < 5 {
		t.Fatalf("builtin kinds = %v", kinds)
	}
}

func TestNamedPlatform(t *testing.T) {
	for _, name := range []string{"", "RAND", "DET"} {
		if _, err := NamedPlatform(name); err != nil {
			t.Errorf("NamedPlatform(%q): %v", name, err)
		}
	}
	if _, err := NamedPlatform("FPGA"); err == nil {
		t.Error("unknown platform resolved")
	}
}
