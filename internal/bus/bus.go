// Package bus models the shared AMBA-style bus that propagates IL1/DL1
// misses and TLB walks from the cores to the DRAM controller. It keeps
// a single global timeline: requests are granted in timestamp order
// (first-come-first-served). The bus itself imposes no priority among
// cores — callers must present requests in non-decreasing timestamp
// order, and cross-core ties are broken by the platform's arbiter
// (fixed core-index priority, matching the deterministic arbiter of
// the reference architecture; see internal/platform's multicore
// co-simulation).
package bus

import (
	"fmt"
)

// Kind tags a bus transaction for statistics and latency selection.
type Kind uint8

// Transaction kinds.
const (
	KindLineFill Kind = iota // cache line refill (IL1 or DL1 miss)
	KindWrite                // write-through store drain
	KindTLBWalk              // one page-table-walk access
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindLineFill:
		return "fill"
	case KindWrite:
		return "write"
	case KindTLBWalk:
		return "walk"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Config sets the bus timing.
type Config struct {
	// TransferCycles is the bus occupancy of one transaction (command +
	// data beats), excluding the memory access time behind it.
	TransferCycles uint64
	// Cores is the number of requestors for round-robin arbitration.
	Cores int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TransferCycles < 1 {
		return fmt.Errorf("bus: transfer cycles %d < 1", c.TransferCycles)
	}
	if c.Cores < 1 {
		return fmt.Errorf("bus: cores %d < 1", c.Cores)
	}
	return nil
}

// Stats counts bus activity.
type Stats struct {
	Transactions uint64
	BusyCycles   uint64
	WaitCycles   uint64 // total queueing delay imposed on requestors
}

// Bus is the shared interconnect. It is driven by the platform's
// discrete-event loop, which guarantees requests arrive in
// non-decreasing completion order per core; the bus serializes
// cross-core requests on its single timeline.
type Bus struct {
	cfg    Config
	freeAt uint64 // first cycle the bus is idle
	stats  Stats
}

// New builds a bus.
func New(cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bus{cfg: cfg}, nil
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// Stats returns a copy of the counters.
func (b *Bus) Stats() Stats { return b.stats }

// Reset clears the timeline and counters (per-run protocol: the board
// is reset between measurement runs).
func (b *Bus) Reset() {
	b.freeAt = 0
	b.stats = Stats{}
}

// Request asks for the bus at time t on behalf of core. It returns the
// cycle at which the transfer starts; the transfer occupies the bus for
// TransferCycles from that point. The caller adds the memory latency
// behind the transfer (the DRAM controller has its own timeline).
func (b *Bus) Request(core int, t uint64, kind Kind) uint64 {
	if core < 0 || core >= b.cfg.Cores {
		panic(badCore{core, b.cfg.Cores})
	}
	start := max(t, b.freeAt)
	b.stats.Transactions++
	b.stats.WaitCycles += start - t
	b.stats.BusyCycles += b.cfg.TransferCycles
	b.freeAt = start + b.cfg.TransferCycles
	return start
}

// badCore is Request's panic value for a core outside the bus; it
// formats only when printed, which keeps Request small enough to
// inline into the core's fill and drain paths.
type badCore struct{ core, cores int }

func (e badCore) Error() string {
	return fmt.Sprintf("bus: core %d out of range [0,%d)", e.core, e.cores)
}

// FreeAt reports the first idle cycle (test/debug aid).
func (b *Bus) FreeAt() uint64 { return b.freeAt }

// TransferCycles returns the bus occupancy of one transaction,
// satisfying the cpu.Interconnect contract.
func (b *Bus) TransferCycles() uint64 { return b.cfg.TransferCycles }
