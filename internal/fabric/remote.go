// Remote executors: the fabric's wire protocol reuses the write-ahead
// log codec (internal/wal) as its framing — every frame is
// kind|len|payload|crc32, and measurement results cross the socket as
// the exact run-record bytes a journal would hold. Control frames use
// kinds in the 0x10+ range, well clear of the journal's record kinds.
//
// An executor dials the coordinator, announces itself, and then serves
// leases sequentially: the coordinator sends a session spec (platform
// build + workload spec + seed base, JSON) the first time a session
// appears on the connection, then a lease frame naming a run range;
// the executor streams one run-record frame per run and closes the
// lease with a lease-done frame. A dropped connection or an
// executor-reported failure re-queues the lease seed-preserved, so a
// killed executor never changes a campaign's results — only its
// wall-clock time. Parallelism is one lease per connection; run
// several executors (or several connections) for more.
package fabric

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/platform"
	"repro/internal/wal"
)

// Control-frame kinds (the 0x10+ range; journal records use 1..3).
const (
	kindHello     byte = 0x10 // executor → coordinator: {"v":1}
	kindSpec      byte = 0x11 // coordinator → executor: SessionSpec
	kindLease     byte = 0x12 // coordinator → executor: leaseMsg
	kindLeaseDone byte = 0x13 // executor → coordinator: leaseMsg
	kindLeaseFail byte = 0x14 // executor → coordinator: leaseFailMsg
)

const protocolVersion = 1

type helloMsg struct {
	V int `json:"v"`
}

type leaseMsg struct {
	Session uint64 `json:"session"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
}

type leaseFailMsg struct {
	Session uint64 `json:"session"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	Error   string `json:"error"`
}

func writeJSONFrame(w io.Writer, kind byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return wal.WriteFrame(w, kind, payload)
}

// ServeExecutors accepts remote-executor connections on ln and serves
// leases to them until ln is closed (or the pool is). Each connection
// behaves like one additional (sequential) executor; its leases come
// only from sessions whose workload is spec-backed (see SpecWorkload)
// and that carry neither a run cache nor a custom board.
func (p *Pool) ServeExecutors(ln net.Listener) error {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		// Release handlers idling in acquireLease, then wait them out.
		close(stop)
		p.wake()
		wg.Wait()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.handleExecutor(conn, stop)
		}()
	}
}

// handleExecutor drives one remote-executor connection: acquire a
// spec-backed lease, ship it, merge the streamed run records.
func (p *Pool) handleExecutor(conn net.Conn, stop <-chan struct{}) {
	defer conn.Close()
	fr := wal.NewFrameReader(conn)
	kind, payload, err := fr.Next()
	if err != nil || kind != kindHello {
		return
	}
	var hello helloMsg
	if json.Unmarshal(payload, &hello) != nil || hello.V != protocolVersion {
		return
	}
	bw := bufio.NewWriter(conn)
	introduced := make(map[uint64]bool)

	for {
		s, l := p.acquireLease(remoteSessions, stop, nil)
		if l == nil {
			return // pool closed
		}
		if !introduced[s.id] {
			if err := writeJSONFrame(bw, kindSpec, s.spec); err != nil {
				l.Abandon()
				return
			}
			introduced[s.id] = true
		}
		msg := leaseMsg{Session: s.id, Start: l.Start(), End: l.End()}
		if err := writeJSONFrame(bw, kindLease, msg); err != nil {
			l.Abandon()
			return
		}
		if err := bw.Flush(); err != nil {
			l.Abandon()
			return
		}
		if !mergeLeaseResults(fr, s.spec.BaseSeed, l) {
			return // connection is gone; the lease was re-queued
		}
	}
}

// mergeLeaseResults reads one lease's worth of frames off the
// connection, validating each run record (range, seed derived from
// baseSeed) before it completes in the session. It returns false when
// the connection died (the lease has been abandoned for re-queue).
func mergeLeaseResults(fr *wal.FrameReader, baseSeed uint64, l *platform.Lease) bool {
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			l.Abandon()
			return false
		}
		switch kind {
		case wal.KindRun:
			rec, err := wal.DecodeRunRecord(payload)
			if err != nil {
				l.Fail(fmt.Errorf("fabric: corrupt run record from executor: %w", err))
				return false
			}
			if rec.Run < l.Start() || rec.Run >= l.End() {
				l.Fail(fmt.Errorf("fabric: executor returned run %d outside lease [%d,%d)",
					rec.Run, l.Start(), l.End()))
				return false
			}
			if want := platform.DeriveRunSeed(baseSeed, rec.Run); rec.Seed != want {
				l.Fail(fmt.Errorf("fabric: executor run %d used seed %#x, protocol requires %#x",
					rec.Run, rec.Seed, want))
				return false
			}
			l.Complete(rec.Run, platform.RunResult{
				Cycles:       rec.Cycles,
				Instructions: rec.Instructions,
				Path:         rec.Path,
				Outcome:      rec.Outcome,
				Faults:       rec.Faults,
			})
		case kindLeaseDone:
			l.Finish()
			return true
		case kindLeaseFail:
			var msg leaseFailMsg
			reason := "executor failure"
			if json.Unmarshal(payload, &msg) == nil && msg.Error != "" {
				reason = msg.Error
			}
			l.Fail(fmt.Errorf("fabric: executor failed lease [%d,%d): %s",
				l.Start(), l.End(), reason))
			return true
		default:
			l.Fail(fmt.Errorf("fabric: unexpected frame kind %#x from executor", kind))
			return false
		}
	}
}

// execState is one session's execution context on a remote executor:
// the rebuilt workload and a board reused across that session's leases
// (PrepareRun resets all stateful resources, so reuse is
// protocol-compliant).
type execState struct {
	spec  SessionSpec
	w     platform.Workload
	board platform.Board
}

// maxCachedSessions bounds the per-connection board cache; a
// long-lived executor serving thousands of sessions evicts the oldest.
const maxCachedSessions = 8

// RunExecutor connects to a coordinator at addr and serves leases until
// ctx is canceled or the coordinator closes the connection (clean
// shutdown, nil error). Workload specs resolve through reg (nil =
// BuiltinRegistry). One connection executes leases sequentially; run
// several RunExecutor instances for parallelism.
func RunExecutor(ctx context.Context, addr string, reg *Registry) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	return ExecuteConn(ctx, conn, reg)
}

// ExecuteConn is RunExecutor over an established connection.
func ExecuteConn(ctx context.Context, conn net.Conn, reg *Registry) error {
	if reg == nil {
		reg = BuiltinRegistry()
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	bw := bufio.NewWriter(conn)
	if err := writeJSONFrame(bw, kindHello, helloMsg{V: protocolVersion}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	fr := wal.NewFrameReader(conn)
	sessions := make(map[uint64]*execState)
	var order []uint64 // eviction order (insertion)
	var scratch []byte

	for {
		kind, payload, err := fr.Next()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		switch kind {
		case kindSpec:
			var spec SessionSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				return fmt.Errorf("fabric: bad session spec: %w", err)
			}
			w, err := reg.Build(spec.Workload)
			if err != nil {
				return err
			}
			board, err := platform.New(spec.Platform)
			if err != nil {
				return fmt.Errorf("fabric: build platform %q: %w", spec.Platform.Name, err)
			}
			if len(order) >= maxCachedSessions {
				delete(sessions, order[0])
				order = order[1:]
			}
			sessions[spec.Session] = &execState{spec: spec, w: w, board: board}
			order = append(order, spec.Session)
		case kindLease:
			var msg leaseMsg
			if err := json.Unmarshal(payload, &msg); err != nil {
				return fmt.Errorf("fabric: bad lease frame: %w", err)
			}
			es, ok := sessions[msg.Session]
			if !ok {
				if err := writeJSONFrame(bw, kindLeaseFail, leaseFailMsg{
					Session: msg.Session, Start: msg.Start, End: msg.End,
					Error: "unknown session (spec evicted or never sent)",
				}); err != nil {
					return err
				}
				if err := bw.Flush(); err != nil {
					return err
				}
				continue
			}
			if scratch, err = executeLease(ctx, bw, es, msg, scratch); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fabric: unexpected frame kind %#x from coordinator", kind)
		}
	}
}

// executeLease runs one lease and streams its run records. Execution
// failures are reported in-band (lease-fail frame), not as an error;
// the returned error means the connection itself is unusable.
func executeLease(ctx context.Context, bw *bufio.Writer, es *execState, msg leaseMsg, scratch []byte) ([]byte, error) {
	pol := platform.ExecPolicy{RunTimeout: es.spec.RunTimeout}
	for run := msg.Start; run < msg.End; run++ {
		r, err := platform.SafeExecuteRun(ctx, es.board, es.w, es.spec.BaseSeed, run, pol)
		if err != nil {
			return scratch, writeJSONFrame(bw, kindLeaseFail, leaseFailMsg{
				Session: msg.Session, Start: msg.Start, End: msg.End, Error: err.Error(),
			})
		}
		rec := wal.RunRecord{
			Run:          run,
			Seed:         platform.DeriveRunSeed(es.spec.BaseSeed, run),
			Cycles:       r.Cycles,
			Instructions: r.Instructions,
			Faults:       r.Faults,
			Path:         r.Path,
			Outcome:      r.Outcome,
		}
		payload, err := wal.EncodeRunRecord(scratch[:0], rec)
		if err != nil {
			return scratch, writeJSONFrame(bw, kindLeaseFail, leaseFailMsg{
				Session: msg.Session, Start: msg.Start, End: msg.End, Error: err.Error(),
			})
		}
		scratch = payload
		if err := wal.WriteFrame(bw, wal.KindRun, payload); err != nil {
			return scratch, err
		}
	}
	return scratch, writeJSONFrame(bw, kindLeaseDone, leaseMsg{
		Session: msg.Session, Start: msg.Start, End: msg.End,
	})
}
