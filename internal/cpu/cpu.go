// Package cpu implements the timing model of one LEON3-class core: a
// 7-stage in-order pipeline (fetch, decode, register access, execute,
// memory, exception, write-back) fed by split first-level caches and
// TLBs, with a write-through store buffer, a shared bus and the DRAM
// controller behind it.
//
// The model is event-additive: the architectural interpreter
// (internal/isa) feeds the retired instructions one fetch block at a
// time, and the core charges each instruction's base pipelined cost
// plus every stall it incurs (cache misses, TLB walks, long execute
// latencies, taken-branch bubbles, store-buffer pressure). This is the
// standard abstraction level of the MBPTA literature, where the
// analyzed jitter sources are exactly cache/TLB placement and
// replacement, FPU latency and memory interference.
package cpu

import (
	"fmt"
	"math"

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
// the multicore arbiter.
type Interconnect interface {
	// Request asks for the bus at time t for a transaction on addr. It
	// returns the grant cycle and the memory access latency behind the
	// transfer. The requesting core's identity is fixed at port
	// construction — an Interconnect value serves exactly one core, so
	// the request carries no core argument a caller could mismatch.
	Request(t uint64, kind bus.Kind, addr uint64) (start, memLat uint64)
	// TransferCycles is the bus occupancy of one transaction. It is
	// constant for the lifetime of the Interconnect value: NewCore reads
	// it once.
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

	// direct is Bus when it is a BusMem (else zero): fills and drains
	// then call the bus and DRAM models without an interface call.
	direct BusMem

	cycle      uint64
	storeSlots []uint64 // completion times of in-flight write-through stores
	stats      Stats

	// Hot-path constants, resolved once at construction so ConsumeBlock
	// does not re-read config structs per retired instruction.
	itlbWalks   int
	dtlbWalks   int
	branchTaken uint64
	loadUse     uint64
	transfer    uint64 // Bus.TransferCycles()
	fetchBytes  int    // FetchBytes()
	// fixedExtra holds the execute-stage cycles beyond the base cycle of
	// the fixed-latency classes (integer multiply/divide, FP add/mul),
	// indexed by class; every other class has 0.
	fixedExtra [256]uint64
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
	c := &Core{
		ID: id, Params: params,
		IL1: il1, DL1: dl1, ITLB: itlb, DTLB: dtlb,
		FPU: f, Bus: b,
		storeSlots:  make([]uint64, params.StoreBufferDepth),
		itlbWalks:   itlb.Config().WalkAccesses,
		dtlbWalks:   dtlb.Config().WalkAccesses,
		branchTaken: uint64(params.BranchTaken),
		loadUse:     uint64(params.LoadUseExtra),
		transfer:    b.TransferCycles(),
		fetchBytes:  min(il1.Config().LineBytes, itlb.Config().PageBytes),
	}
	c.fixedExtra[isa.ClassIntMul] = uint64(params.IntMulExtra)
	c.fixedExtra[isa.ClassIntDiv] = uint64(params.IntDivExtra)
	c.fixedExtra[isa.ClassFPAdd] = uint64(f.AddLatency() - 1)
	c.fixedExtra[isa.ClassFPMul] = uint64(f.MulLatency() - 1)
	if bm, ok := b.(BusMem); ok {
		c.direct = bm
	}
	if il1 == dl1 || itlb == dtlb {
		// A unified cache or TLB is touched between a block's fetches.
		c.fetchBytes = 0
	}
	return c, nil
}

// FetchBytes implements isa.BlockSink: the granule within which every
// fetch after the first is an IL1 hit on the same line and an ITLB hit
// on the same page — the smaller of the IL1 line and the ITLB page.
func (c *Core) FetchBytes() int { return c.fetchBytes }

// Cycle returns the current core-local cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// Stats returns a copy of the counters.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.cycle
	return s
}

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
	start, memLat := c.request(kind, addr)
	wait := start - c.cycle
	return wait + c.transfer + memLat
}

// request asks the interconnect for the bus at the current cycle.
func (c *Core) request(kind bus.Kind, addr uint64) (start, memLat uint64) {
	if d := &c.direct; d.Bus != nil {
		return d.Bus.Request(d.Core, c.cycle, kind), d.Mem.Latency(addr)
	}
	return c.Bus.Request(c.cycle, kind, addr)
}

// ConsumeBlock implements isa.BlockSink: it charges one fetch block to
// the pipeline exactly as the same instructions delivered one per block
// would.
//
// IL1 and ITLB are touched only by fetches, and every fetch after the
// block's first lies on the line and page that first fetch hit or
// filled — the arrays' most-recent records. So the later fetches are
// guaranteed hits that charge no cycles, and one RepeatHit per array
// applies them in bulk with the clock, recency stamp and hit counters
// they would have left. While a record is off (after a fault upset,
// until the next flush) the block falls back to one probe per fetch.
func (c *Core) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	n := len(classes)
	c.stats.Instructions += uint64(n)
	// The clock and the block's data and execute stalls live in locals;
	// c.cycle is synced around every call that reads or advances it.
	cyc, dmem, exec := c.cycle, uint64(0), uint64(0)
	itlb, il1, dtlb, dl1 := c.ITLB, c.IL1, c.DTLB, c.DL1
	bulk := false
	k := 0 // next operand word
	for i, cl := range classes {
		if !bulk {
			// Fetch: ITLB, then IL1, each testing its inlined record
			// probes first, so the common hit costs no call.
			fpc := pc + uint64(i)*isa.InstrBytes
			if !itlb.FastHit(fpc) {
				c.cycle = cyc
				c.itlbFetch(fpc)
				cyc = c.cycle
			}
			if !il1.FastAccess(fpc) && !il1.FastAccess1(fpc) {
				c.cycle = cyc
				c.il1Fetch(fpc)
				cyc = c.cycle
			}
			if i == 0 && n > 1 && itlb.Recorded(pc) && il1.Recorded(pc) {
				itlb.RepeatHit(pc, uint64(n-1))
				il1.RepeatHit(pc, uint64(n-1))
				bulk = true
			}
		}
		// Base pipelined cost, then the execute/memory stage by class.
		cyc++
		switch cl {
		case isa.ClassNop, isa.ClassIntALU, isa.ClassHalt:
			// single cycle, fully pipelined
		case isa.ClassIntMul, isa.ClassIntDiv, isa.ClassFPAdd, isa.ClassFPMul:
			// Fixed execute latencies. (One case per class keeps the
			// switch a jump table.)
			e := c.fixedExtra[cl]
			cyc += e
			exec += e
		case isa.ClassBranch:
			if taken && i == n-1 {
				cyc += c.branchTaken
				c.stats.BranchStall += c.branchTaken
			}
		case isa.ClassLoad:
			// Each data probe tests the two inlined record probes first.
			addr := ops[k]
			k++
			if !dtlb.FastHit(addr) && !dtlb.FastHit1(addr) && !dtlb.Lookup(addr) {
				c.cycle = cyc
				c.dtlbWalk(addr)
				cyc = c.cycle
			}
			if dl1.FastAccess(addr) || dl1.FastAccess1(addr) || dl1.Access(addr) {
				cyc += c.loadUse
				dmem += c.loadUse
			} else {
				c.cycle = cyc
				fill := c.memFill(addr, bus.KindLineFill)
				cyc += fill
				dmem += fill
			}
		case isa.ClassStore:
			addr := ops[k]
			k++
			c.cycle = cyc
			if !dtlb.FastHit(addr) && !dtlb.FastHit1(addr) && !dtlb.Lookup(addr) {
				c.dtlbWalk(addr)
			}
			if !dl1.FastWrite(addr) && !dl1.FastWrite1(addr) {
				dl1.Write(addr) // write-through, no allocate
			}
			c.storeDrain(addr)
			cyc = c.cycle
		case isa.ClassFPDiv:
			e := c.divExtra(math.Float64frombits(ops[k]), math.Float64frombits(ops[k+1]))
			k += 2
			cyc += e
			exec += e
		case isa.ClassFPSqrt:
			e := c.sqrtExtra(math.Float64frombits(ops[k]))
			k++
			cyc += e
			exec += e
		}
	}
	c.cycle = cyc
	c.stats.DMemStall += dmem
	c.stats.ExecStall += exec
}

// itlbFetch and il1Fetch are the fetch probes behind the inlined
// record probes: the full lookup, and the page walk or line fill a miss
// charges.
func (c *Core) itlbFetch(pc uint64) {
	if !c.ITLB.Lookup(pc) {
		walk := uint64(0)
		for i := 0; i < c.itlbWalks; i++ {
			walk += c.memFill(pc, bus.KindTLBWalk)
		}
		c.cycle += walk
		c.stats.IFetchStall += walk
	}
}

func (c *Core) il1Fetch(pc uint64) {
	if !c.IL1.Access(pc) {
		fill := c.memFill(pc, bus.KindLineFill)
		c.cycle += fill
		c.stats.IFetchStall += fill
	}
}

// divExtra and sqrtExtra are the operand-dependent FPU latencies beyond
// the base cycle.
func (c *Core) divExtra(dividend, divisor float64) uint64 {
	return uint64(c.FPU.DivLatency(dividend, divisor) - 1)
}

func (c *Core) sqrtExtra(x float64) uint64 { return uint64(c.FPU.SqrtLatency(x) - 1) }

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
	slot := c.drainSlot()
	if c.storeSlots[slot] > c.cycle {
		// Buffer full: stall until the earliest drain completes.
		wait := c.storeSlots[slot] - c.cycle
		c.cycle += wait
		c.stats.StoreStall += wait
	}
	// Issue the drain from the current (post-stall) time.
	start, memLat := c.request(bus.KindWrite, addr)
	c.storeSlots[slot] = start + c.transfer + memLat
}

// RunProgram executes m's program architecturally and charges its
// timing to the core one fetch block at a time, returning the consumed
// cycles. The core is passed as the machine's BlockSink directly — no
// per-run closure allocation.
func (c *Core) RunProgram(m *isa.Machine) (uint64, error) {
	startCycle := c.cycle
	if _, err := m.RunBlocks(c); err != nil {
		return 0, err
	}
	return c.cycle - startCycle, nil
}

// Plan is the request queue of a core replaying a recorded block stream
// against a bus it does not own (internal/platform's inline multicore
// co-simulation). Replay splits ConsumeBlock in two:
//
//   - PlanBlock runs the timing-independent half of one block in program
//     order: every ITLB/IL1/DTLB/DL1 probe and fixed latency, queuing
//     each bus request the block needs as a step instead of issuing it;
//   - Grant applies one granted step, doing ConsumeBlock's cycle
//     arithmetic for it (memFill, dtlbWalk or storeDrain).
//
// The split is exact because a core's caches, TLBs, FPU and randomness
// source are private and touched in program order: the hit, miss and
// victim sequence does not depend on when requests are granted. Only
// the cycle arithmetic and the store-buffer slot choice do, and both
// wait for Grant. So a core may plan any number of blocks ahead of its
// grants, and a planned and granted core is bit-identical to a
// ConsumeBlock-driven one whose Interconnect granted the same requests
// at the same times.
type Plan struct {
	steps []planStep // queued requests; steps[head:] are not yet granted
	head  int
	delta uint64 // fixed cycles planned after the last queued step
	walk  uint64 // fills granted so far in the current page walk
}

// planStep is one queued bus request.
type planStep struct {
	delta uint64 // fixed cycles charged before the request issues
	addr  uint64
	op    stepOp
	fetch bool // stall charged to IFetchStall, else DMemStall
	last  bool // last access of a page walk
}

type stepOp uint8

const (
	opFill  stepOp = iota // cache line fill
	opWalk                // one page-walk access
	opDrain               // write-through store drain
)

// Reset empties the plan for a new run, keeping the queue's storage.
func (p *Plan) Reset() { *p = Plan{steps: p.steps[:0]} }

// Kind returns the bus transaction kind of the head step.
func (p *Plan) Kind() bus.Kind {
	switch p.steps[p.head].op {
	case opWalk:
		return bus.KindTLBWalk
	case opDrain:
		return bus.KindWrite
	}
	return bus.KindLineFill
}

// Addr returns the address of the head step's transaction.
func (p *Plan) Addr() uint64 { return p.steps[p.head].addr }

// queue appends a step issuing delta cycles after the previous one.
func (p *Plan) queue(delta uint64, op stepOp, addr uint64, fetch, last bool) {
	p.steps = append(p.steps, planStep{delta: delta, addr: addr, op: op, fetch: fetch, last: last})
}

// queueWalk queues the n accesses of a page walk.
func (p *Plan) queueWalk(delta uint64, n int, addr uint64, fetch bool) {
	for i := 0; i < n; i++ {
		p.queue(delta, opWalk, addr, fetch, i == n-1)
		delta = 0
	}
}

// PlanBlock plans one fetch block — ConsumeBlock's arguments — into p,
// queuing its bus requests after any steps still queued. As
// ConsumeBlock does, it probes IL1 and ITLB at the block's first fetch
// and applies the later ones with one RepeatHit per array while both
// hold the first fetch's line and page.
func (c *Core) PlanBlock(p *Plan, pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	if p.head == len(p.steps) {
		p.steps, p.head = p.steps[:0], 0
	}
	n := len(classes)
	c.stats.Instructions += uint64(n)
	// d is the delta of the next step queued and restarts at 0 after
	// each; the block's load-use and execute stalls live in locals.
	d, dmem, exec := p.delta, uint64(0), uint64(0)
	itlb, il1, dtlb, dl1 := c.ITLB, c.IL1, c.DTLB, c.DL1
	bulk := false
	k := 0 // next operand word
	for i, cl := range classes {
		if !bulk {
			fpc := pc + uint64(i)*isa.InstrBytes
			if !itlb.FastHit(fpc) && !itlb.Lookup(fpc) {
				p.queueWalk(d, c.itlbWalks, fpc, true)
				d = 0
			}
			if !il1.FastAccess(fpc) && !il1.Access(fpc) {
				p.queue(d, opFill, fpc, true, false)
				d = 0
			}
			if i == 0 && n > 1 && itlb.Recorded(pc) && il1.Recorded(pc) {
				itlb.RepeatHit(pc, uint64(n-1))
				il1.RepeatHit(pc, uint64(n-1))
				bulk = true
			}
		}
		d++
		switch cl {
		case isa.ClassNop, isa.ClassIntALU, isa.ClassHalt:
		case isa.ClassIntMul, isa.ClassIntDiv, isa.ClassFPAdd, isa.ClassFPMul:
			e := c.fixedExtra[cl]
			d += e
			exec += e
		case isa.ClassBranch:
			if taken && i == n-1 {
				d += c.branchTaken
				c.stats.BranchStall += c.branchTaken
			}
		case isa.ClassLoad:
			addr := ops[k]
			k++
			if !dtlb.FastHit(addr) && !dtlb.Lookup(addr) {
				p.queueWalk(d, c.dtlbWalks, addr, false)
				d = 0
			}
			if dl1.FastAccess(addr) || dl1.Access(addr) {
				d += c.loadUse
				dmem += c.loadUse
			} else {
				p.queue(d, opFill, addr, false, false)
				d = 0
			}
		case isa.ClassStore:
			addr := ops[k]
			k++
			if !dtlb.FastHit(addr) && !dtlb.Lookup(addr) {
				p.queueWalk(d, c.dtlbWalks, addr, false)
				d = 0
			}
			if !dl1.FastWrite(addr) {
				dl1.Write(addr) // write-through, no allocate
			}
			p.queue(d, opDrain, addr, false, false)
			d = 0
		case isa.ClassFPDiv:
			e := c.divExtra(math.Float64frombits(ops[k]), math.Float64frombits(ops[k+1]))
			k += 2
			d += e
			exec += e
		case isa.ClassFPSqrt:
			e := c.sqrtExtra(math.Float64frombits(ops[k]))
			k++
			d += e
			exec += e
		}
	}
	p.delta = d
	c.stats.DMemStall += dmem
	c.stats.ExecStall += exec
}

// NextRequest returns the cycle at which the head step of p issues its
// bus request — after its fixed cycles and, for a store drain, after
// waiting for a free store-buffer slot — and true. Only grants of this
// core's earlier steps move it. With no step queued it returns the
// cycle the plan has reached, before which no later request can issue,
// and false.
func (c *Core) NextRequest(p *Plan) (uint64, bool) {
	if p.head == len(p.steps) {
		return c.cycle + p.delta, false
	}
	s := &p.steps[p.head]
	t := c.cycle + s.delta
	if s.op == opDrain {
		t = max(t, c.storeSlots[c.drainSlot()])
	}
	return t, true
}

// Grant applies the grant (start, memLat) of p's head step and pops it.
func (c *Core) Grant(p *Plan, start, memLat uint64) {
	s := &p.steps[p.head]
	p.head++
	c.cycle += s.delta
	stall := &c.stats.DMemStall
	if s.fetch {
		stall = &c.stats.IFetchStall
	}
	switch s.op {
	case opFill:
		fill := start - c.cycle + c.transfer + memLat
		c.cycle += fill
		*stall += fill
	case opWalk:
		// Every access of a walk issues at the pre-walk cycle; the
		// walk's fills are charged together after the last one.
		p.walk += start - c.cycle + c.transfer + memLat
		if s.last {
			c.cycle += p.walk
			*stall += p.walk
			p.walk = 0
		}
	case opDrain:
		slot := c.drainSlot()
		if free := c.storeSlots[slot]; free > c.cycle {
			c.stats.StoreStall += free - c.cycle
			c.cycle = free
		}
		c.storeSlots[slot] = start + c.transfer + memLat
	}
}

// drainSlot returns the store-buffer slot that frees first (the lowest
// such index on ties).
func (c *Core) drainSlot() int {
	slots := c.storeSlots
	slot, first := 0, slots[0]
	for i := 1; i < len(slots); i++ {
		if slots[i] < first {
			slot, first = i, slots[i]
		}
	}
	return slot
}
