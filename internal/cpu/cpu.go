// Package cpu implements the timing model of one LEON3-class core: a
// 7-stage in-order pipeline (fetch, decode, register access, execute,
// memory, exception, write-back) fed by split first-level caches and
// TLBs, with a write-through store buffer, a shared bus and the DRAM
// controller behind it.
//
// The model is event-additive: the architectural interpreter
// (internal/isa) feeds one Event per retired instruction, and the core
// charges the base pipelined cost plus every stall that event incurs
// (cache misses, TLB walks, long execute latencies, taken-branch
// bubbles, store-buffer pressure). This is the standard abstraction
// level of the MBPTA literature, where the analyzed jitter sources are
// exactly cache/TLB placement and replacement, FPU latency and memory
// interference.
package cpu

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// Params are the fixed pipeline latencies (cycles). Execute-stage
// latencies are *additional* cycles beyond the 1-cycle base CPI of a
// fully pipelined instruction.
type Params struct {
	IntMulExtra  int // integer multiply extra cycles
	IntDivExtra  int // integer divide extra cycles (fixed latency, jitterless)
	BranchTaken  int // pipeline bubbles on a taken branch/jump
	LoadUseExtra int // extra cycle of a load hit (cache access in ME stage)
	// StoreBufferDepth is the number of pending write-through stores the
	// core tolerates before stalling.
	StoreBufferDepth int
}

// DefaultParams returns LEON3-flavoured defaults.
func DefaultParams() Params {
	return Params{
		IntMulExtra:      3,
		IntDivExtra:      34,
		BranchTaken:      2,
		LoadUseExtra:     1,
		StoreBufferDepth: 4,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.IntMulExtra < 0 || p.IntDivExtra < 0 || p.BranchTaken < 0 || p.LoadUseExtra < 0 {
		return fmt.Errorf("cpu: negative latency in %+v", p)
	}
	if p.StoreBufferDepth < 1 {
		return fmt.Errorf("cpu: store buffer depth %d < 1", p.StoreBufferDepth)
	}
	return nil
}

// Stats aggregates per-run pipeline activity.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	IFetchStall  uint64 // cycles lost to IL1 misses + ITLB walks
	DMemStall    uint64 // cycles lost to DL1 load misses + DTLB walks
	StoreStall   uint64 // cycles lost to a full store buffer
	ExecStall    uint64 // cycles lost to long execute latencies
	BranchStall  uint64 // taken-branch bubbles
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// IPC returns instructions per cycle — the throughput form the
// telemetry layer reports.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Interconnect is the memory-system contract the core needs: FCFS bus
// grants on a global timeline, the DRAM access latency behind each
// transaction, and the per-transaction bus occupancy. BusMem couples
// the stand-alone bus and DRAM models; the platform layer substitutes
// interference injectors or the multicore arbiter.
type Interconnect interface {
	// Request asks for the bus at time t for a transaction on addr. It
	// returns the grant cycle and the memory access latency behind the
	// transfer. The requesting core's identity is fixed at port
	// construction — an Interconnect value serves exactly one core, so
	// the request carries no core argument a caller could mismatch.
	Request(t uint64, kind bus.Kind, addr uint64) (start, memLat uint64)
	// TransferCycles is the bus occupancy of one transaction.
	TransferCycles() uint64
}

// BusMem is the single-requestor Interconnect: a bus directly in front
// of the DRAM controller, requesting on behalf of Core (zero value:
// core 0, the measured core).
type BusMem struct {
	Bus  *bus.Bus
	Mem  *mem.Controller
	Core int
}

// Request grants the bus FCFS and charges the DRAM access.
func (bm BusMem) Request(t uint64, kind bus.Kind, addr uint64) (uint64, uint64) {
	start := bm.Bus.Request(bm.Core, t, kind)
	return start, bm.Mem.Latency(addr)
}

// TransferCycles forwards the bus occupancy.
func (bm BusMem) TransferCycles() uint64 { return bm.Bus.TransferCycles() }

// Core is the timing model of one core. Not safe for concurrent use.
type Core struct {
	ID     int
	Params Params

	IL1  *cache.Cache
	DL1  *cache.Cache
	ITLB *tlb.TLB
	DTLB *tlb.TLB
	FPU  *fpu.FPU
	Bus  Interconnect

	cycle      uint64
	storeSlots []uint64 // completion times of in-flight write-through stores
	stats      Stats

	// Hot-path constants, resolved once at construction so Consume does
	// not re-read config structs per retired instruction.
	itlbWalks   int
	dtlbWalks   int
	fpAddExtra  uint64
	fpMulExtra  uint64
	intMulExtra uint64
	intDivExtra uint64
	branchTaken uint64
	loadUse     uint64
}

// NewCore wires a core together. All components must be non-nil.
func NewCore(id int, params Params, il1, dl1 *cache.Cache, itlb, dtlb *tlb.TLB,
	f *fpu.FPU, b Interconnect) (*Core, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if il1 == nil || dl1 == nil || itlb == nil || dtlb == nil || f == nil || b == nil {
		return nil, fmt.Errorf("cpu: core %d: nil component", id)
	}
	return &Core{
		ID: id, Params: params,
		IL1: il1, DL1: dl1, ITLB: itlb, DTLB: dtlb,
		FPU: f, Bus: b,
		storeSlots:  make([]uint64, params.StoreBufferDepth),
		itlbWalks:   itlb.Config().WalkAccesses,
		dtlbWalks:   dtlb.Config().WalkAccesses,
		fpAddExtra:  uint64(f.AddLatency() - 1),
		fpMulExtra:  uint64(f.MulLatency() - 1),
		intMulExtra: uint64(params.IntMulExtra),
		intDivExtra: uint64(params.IntDivExtra),
		branchTaken: uint64(params.BranchTaken),
		loadUse:     uint64(params.LoadUseExtra),
	}, nil
}

// Cycle returns the current core-local cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// Stats returns a copy of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Reset rewinds the core clock and counters and empties the store
// buffer. Cache/TLB contents are managed separately (FlushAll), as the
// platform protocol distinguishes "reset" and "flush".
func (c *Core) Reset() {
	c.cycle = 0
	c.stats = Stats{}
	for i := range c.storeSlots {
		c.storeSlots[i] = 0
	}
}

// FlushAll invalidates the core's caches and TLBs.
func (c *Core) FlushAll() {
	c.IL1.Flush()
	c.DL1.Flush()
	c.ITLB.Flush()
	c.DTLB.Flush()
}

// memFill charges one cache-line fill (or page-walk access) via the
// shared bus and DRAM: queueing delay + transfer + access latency.
func (c *Core) memFill(addr uint64, kind bus.Kind) uint64 {
	start, memLat := c.Bus.Request(c.cycle, kind, addr)
	wait := start - c.cycle
	return wait + c.Bus.TransferCycles() + memLat
}

// Consume charges one retired instruction to the pipeline.
func (c *Core) Consume(ev isa.Event) {
	c.stats.Instructions++
	// --- Fetch: ITLB, then IL1. --- Each probe below tests the inlined
	// same-page/same-line fast path first, so the common hit costs no
	// call; the full lookup runs only when it declines.
	if !c.ITLB.FastHit(ev.PC) && !c.ITLB.Lookup(ev.PC) {
		walk := uint64(0)
		for i := 0; i < c.itlbWalks; i++ {
			walk += c.memFill(ev.PC, bus.KindTLBWalk)
		}
		c.cycle += walk
		c.stats.IFetchStall += walk
	}
	if !c.IL1.FastAccess(ev.PC) && !c.IL1.Access(ev.PC) {
		fill := c.memFill(ev.PC, bus.KindLineFill)
		c.cycle += fill
		c.stats.IFetchStall += fill
	}
	// Base pipelined cost.
	c.cycle++

	// --- Execute / memory stage, by class. ---
	switch ev.Class {
	case isa.ClassNop, isa.ClassIntALU, isa.ClassHalt:
		// single cycle, fully pipelined
	case isa.ClassIntMul:
		c.stall(c.intMulExtra, &c.stats.ExecStall)
	case isa.ClassIntDiv:
		c.stall(c.intDivExtra, &c.stats.ExecStall)
	case isa.ClassBranch:
		if ev.Taken {
			c.stall(c.branchTaken, &c.stats.BranchStall)
		}
	case isa.ClassFPAdd:
		c.stall(c.fpAddExtra, &c.stats.ExecStall)
	case isa.ClassFPMul:
		c.stall(c.fpMulExtra, &c.stats.ExecStall)
	case isa.ClassFPDiv:
		c.stall(uint64(c.FPU.DivLatency(ev.FOp1, ev.FOp2)-1), &c.stats.ExecStall)
	case isa.ClassFPSqrt:
		c.stall(uint64(c.FPU.SqrtLatency(ev.FOp1)-1), &c.stats.ExecStall)
	case isa.ClassLoad:
		if !c.DTLB.FastHit(ev.Addr) && !c.DTLB.Lookup(ev.Addr) {
			c.dtlbWalk(ev.Addr)
		}
		if c.DL1.FastAccess(ev.Addr) || c.DL1.Access(ev.Addr) {
			c.stall(c.loadUse, &c.stats.DMemStall)
		} else {
			fill := c.memFill(ev.Addr, bus.KindLineFill)
			c.cycle += fill
			c.stats.DMemStall += fill
		}
	case isa.ClassStore:
		if !c.DTLB.FastHit(ev.Addr) && !c.DTLB.Lookup(ev.Addr) {
			c.dtlbWalk(ev.Addr)
		}
		if !c.DL1.FastWrite(ev.Addr) {
			c.DL1.Write(ev.Addr) // write-through, no allocate
		}
		c.storeDrain(ev.Addr)
	}
	c.stats.Cycles = c.cycle
}

func (c *Core) stall(cycles uint64, counter *uint64) {
	c.cycle += cycles
	*counter += cycles
}

// dtlbWalk charges the page-table walk of a DTLB miss.
func (c *Core) dtlbWalk(addr uint64) {
	walk := uint64(0)
	for i := 0; i < c.dtlbWalks; i++ {
		walk += c.memFill(addr, bus.KindTLBWalk)
	}
	c.cycle += walk
	c.stats.DMemStall += walk
}

// storeDrain posts a write-through store into the store buffer. The
// write occupies a buffer slot until the bus+DRAM write completes; when
// all slots are busy the core stalls until the earliest one frees.
func (c *Core) storeDrain(addr uint64) {
	// Find the earliest-free slot.
	slot := 0
	for i := 1; i < len(c.storeSlots); i++ {
		if c.storeSlots[i] < c.storeSlots[slot] {
			slot = i
		}
	}
	if c.storeSlots[slot] > c.cycle {
		// Buffer full: stall until the earliest drain completes.
		wait := c.storeSlots[slot] - c.cycle
		c.cycle += wait
		c.stats.StoreStall += wait
	}
	// Issue the drain from the current (post-stall) time.
	start, memLat := c.Bus.Request(c.cycle, bus.KindWrite, addr)
	c.storeSlots[slot] = start + c.Bus.TransferCycles() + memLat
}

// RunProgram executes prog architecturally on machine memory mem32 and
// charges its timing to the core, returning the consumed cycles. The
// core is passed as the machine's EventSink directly — no per-run
// closure allocation.
func (c *Core) RunProgram(m *isa.Machine) (uint64, error) {
	startCycle := c.cycle
	if _, err := m.RunSink(c); err != nil {
		return 0, err
	}
	return c.cycle - startCycle, nil
}

// EventCursor is the suspension record of one in-flight retired
// instruction whose timing charge is applied incrementally — the
// resumable form of Consume used by arbiter-driven trace replay
// (internal/platform's multicore co-simulation). Instead of calling
// Interconnect.Request synchronously, StartEvent/ResumeEvent park the
// cursor whenever the charge needs the bus, exposing the request in
// the Req* fields; the arbiter grants it at its leisure and resumes.
// While parked, the core's clock and counters are exactly as Consume
// would have left them at the moment it called Request, so a
// cursor-driven core is bit-identical to a Consume-driven one.
//
// A cursor is bound to the single event it was last started with; a
// core must not interleave StartEvent calls with an event still
// parked.
type EventCursor struct {
	ev      isa.Event
	phase   uint8
	walkIdx int
	walkAcc uint64
	slot    int

	// Parked bus request, valid from a StartEvent/ResumeEvent that
	// returned true until the next ResumeEvent.
	ReqTime uint64
	ReqKind bus.Kind
	ReqAddr uint64
}

// Cursor suspension points, one per bus-request site in Consume.
const (
	curITLBWalk  uint8 = iota // in the ITLB page-walk loop
	curILFill                 // waiting on the IL1 line fill
	curDTLBLoad               // in the DTLB walk loop of a load
	curDTLBStore              // in the DTLB walk loop of a store
	curDLFill                 // waiting on the DL1 line fill
	curDrain                  // waiting on the store-buffer drain
)

func (cur *EventCursor) park(phase uint8, t uint64, kind bus.Kind, addr uint64) {
	cur.phase = phase
	cur.ReqTime, cur.ReqKind, cur.ReqAddr = t, kind, addr
}

// StartEvent begins charging ev to the core. It returns true when the
// charge suspended on a bus request (described by cur.Req*), false
// when the event completed without one. The stage structure and every
// counter update mirror Consume exactly.
func (c *Core) StartEvent(cur *EventCursor, ev isa.Event) bool {
	c.stats.Instructions++
	cur.ev = ev
	// --- Fetch: ITLB, then IL1, probed as in Consume. ---
	if !c.ITLB.FastHit(ev.PC) && !c.ITLB.Lookup(ev.PC) {
		cur.walkIdx, cur.walkAcc = 0, 0
		// Walk requests issue at the pre-walk cycle, accumulating into
		// walkAcc first — the same order Consume charges them.
		cur.park(curITLBWalk, c.cycle, bus.KindTLBWalk, ev.PC)
		return true
	}
	return c.curFetchLine(cur)
}

// ResumeEvent applies the grant (start, memLat) of the cursor's parked
// request and continues the charge. It returns true when the event
// suspended on a further request.
func (c *Core) ResumeEvent(cur *EventCursor, start, memLat uint64) bool {
	fill := (start - cur.ReqTime) + c.Bus.TransferCycles() + memLat
	switch cur.phase {
	case curITLBWalk:
		cur.walkAcc += fill
		cur.walkIdx++
		if cur.walkIdx < c.itlbWalks {
			cur.park(curITLBWalk, c.cycle, bus.KindTLBWalk, cur.ev.PC)
			return true
		}
		c.cycle += cur.walkAcc
		c.stats.IFetchStall += cur.walkAcc
		return c.curFetchLine(cur)
	case curILFill:
		c.cycle += fill
		c.stats.IFetchStall += fill
		return c.curExecute(cur)
	case curDTLBLoad, curDTLBStore:
		cur.walkAcc += fill
		cur.walkIdx++
		if cur.walkIdx < c.dtlbWalks {
			cur.park(cur.phase, c.cycle, bus.KindTLBWalk, cur.ev.Addr)
			return true
		}
		c.cycle += cur.walkAcc
		c.stats.DMemStall += cur.walkAcc
		if cur.phase == curDTLBLoad {
			return c.curLoadAccess(cur)
		}
		return c.curStoreAccess(cur)
	case curDLFill:
		c.cycle += fill
		c.stats.DMemStall += fill
		c.stats.Cycles = c.cycle
		return false
	case curDrain:
		c.storeSlots[cur.slot] = start + c.Bus.TransferCycles() + memLat
		c.stats.Cycles = c.cycle
		return false
	default:
		panic(fmt.Sprintf("cpu: resume with invalid cursor phase %d", cur.phase))
	}
}

func (c *Core) curFetchLine(cur *EventCursor) bool {
	if !c.IL1.FastAccess(cur.ev.PC) && !c.IL1.Access(cur.ev.PC) {
		cur.park(curILFill, c.cycle, bus.KindLineFill, cur.ev.PC)
		return true
	}
	return c.curExecute(cur)
}

func (c *Core) curExecute(cur *EventCursor) bool {
	c.cycle++
	ev := cur.ev
	switch ev.Class {
	case isa.ClassNop, isa.ClassIntALU, isa.ClassHalt:
	case isa.ClassIntMul:
		c.stall(c.intMulExtra, &c.stats.ExecStall)
	case isa.ClassIntDiv:
		c.stall(c.intDivExtra, &c.stats.ExecStall)
	case isa.ClassBranch:
		if ev.Taken {
			c.stall(c.branchTaken, &c.stats.BranchStall)
		}
	case isa.ClassFPAdd:
		c.stall(c.fpAddExtra, &c.stats.ExecStall)
	case isa.ClassFPMul:
		c.stall(c.fpMulExtra, &c.stats.ExecStall)
	case isa.ClassFPDiv:
		c.stall(uint64(c.FPU.DivLatency(ev.FOp1, ev.FOp2)-1), &c.stats.ExecStall)
	case isa.ClassFPSqrt:
		c.stall(uint64(c.FPU.SqrtLatency(ev.FOp1)-1), &c.stats.ExecStall)
	case isa.ClassLoad:
		if !c.DTLB.FastHit(ev.Addr) && !c.DTLB.Lookup(ev.Addr) {
			cur.walkIdx, cur.walkAcc = 0, 0
			cur.park(curDTLBLoad, c.cycle, bus.KindTLBWalk, ev.Addr)
			return true
		}
		return c.curLoadAccess(cur)
	case isa.ClassStore:
		if !c.DTLB.FastHit(ev.Addr) && !c.DTLB.Lookup(ev.Addr) {
			cur.walkIdx, cur.walkAcc = 0, 0
			cur.park(curDTLBStore, c.cycle, bus.KindTLBWalk, ev.Addr)
			return true
		}
		return c.curStoreAccess(cur)
	}
	c.stats.Cycles = c.cycle
	return false
}

func (c *Core) curLoadAccess(cur *EventCursor) bool {
	if c.DL1.FastAccess(cur.ev.Addr) || c.DL1.Access(cur.ev.Addr) {
		c.stall(c.loadUse, &c.stats.DMemStall)
		c.stats.Cycles = c.cycle
		return false
	}
	cur.park(curDLFill, c.cycle, bus.KindLineFill, cur.ev.Addr)
	return true
}

func (c *Core) curStoreAccess(cur *EventCursor) bool {
	if !c.DL1.FastWrite(cur.ev.Addr) {
		c.DL1.Write(cur.ev.Addr) // write-through, no allocate
	}
	slot := 0
	for i := 1; i < len(c.storeSlots); i++ {
		if c.storeSlots[i] < c.storeSlots[slot] {
			slot = i
		}
	}
	if c.storeSlots[slot] > c.cycle {
		wait := c.storeSlots[slot] - c.cycle
		c.cycle += wait
		c.stats.StoreStall += wait
	}
	cur.slot = slot
	cur.park(curDrain, c.cycle, bus.KindWrite, cur.ev.Addr)
	return true
}
