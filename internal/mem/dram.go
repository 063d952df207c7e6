// Package mem models the DRAM shared memory controller behind the bus.
// Two page policies are provided:
//
//   - closed-page: every access costs the same fixed latency. This is
//     the MBPTA-friendly configuration (jitterless resource, in the
//     paper's classification) and the default for both platforms.
//   - open-page: a per-bank row buffer makes the latency depend on the
//     access history (row hit vs. row conflict) — a source of
//     deterministic-platform jitter used in the DRAM ablation.
package mem

import (
	"fmt"
)

// Policy selects the controller page policy.
type Policy string

// Page policies.
const (
	PolicyClosedPage Policy = "closed-page"
	PolicyOpenPage   Policy = "open-page"
)

// Config sets the DRAM controller timing.
type Config struct {
	Policy Policy
	// AccessCycles is the closed-page (and open-page row-miss activate +
	// access) latency.
	AccessCycles uint64
	// RowHitCycles is the open-page latency when the row buffer hits.
	RowHitCycles uint64
	// Banks and RowBytes define the open-page row-buffer organisation.
	Banks    int
	RowBytes int
}

// DefaultConfig returns the platform defaults: closed-page, 56-cycle
// access (an SDRAM behind a bus bridge, in CPU cycles), 4 banks of
// 2 KiB rows (bank/row fields only matter for the open-page ablation).
func DefaultConfig() Config {
	return Config{
		Policy:       PolicyClosedPage,
		AccessCycles: 56,
		RowHitCycles: 32,
		Banks:        4,
		RowBytes:     2048,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Policy {
	case PolicyClosedPage, PolicyOpenPage:
	default:
		return fmt.Errorf("mem: unknown policy %q", c.Policy)
	}
	if c.AccessCycles < 1 {
		return fmt.Errorf("mem: access cycles %d < 1", c.AccessCycles)
	}
	if c.Policy == PolicyOpenPage {
		if c.RowHitCycles < 1 || c.RowHitCycles > c.AccessCycles {
			return fmt.Errorf("mem: row hit cycles %d not in [1,%d]", c.RowHitCycles, c.AccessCycles)
		}
		if c.Banks < 1 || c.RowBytes < 1 || c.RowBytes&(c.RowBytes-1) != 0 {
			return fmt.Errorf("mem: invalid banks=%d rowBytes=%d", c.Banks, c.RowBytes)
		}
	}
	return nil
}

// Stats counts controller activity.
type Stats struct {
	Accesses uint64
	RowHits  uint64
	RowMiss  uint64
}

// Controller is the DRAM controller model.
type Controller struct {
	cfg     Config
	closed  bool    // closed-page policy, resolved once from cfg.Policy
	openRow []int64 // per-bank open row (-1 = closed)
	stats   Stats
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, closed: cfg.Policy == PolicyClosedPage}
	banks := cfg.Banks
	if banks < 1 {
		banks = 1
	}
	c.openRow = make([]int64, banks)
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	return c, nil
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Reset closes all rows and clears counters (board reset between runs).
func (c *Controller) Reset() {
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	c.stats = Stats{}
}

// Latency returns the access latency in cycles for addr and updates the
// row-buffer state under the open-page policy.
func (c *Controller) Latency(addr uint64) uint64 {
	c.stats.Accesses++
	if c.closed {
		return c.cfg.AccessCycles
	}
	bank := int(addr/uint64(c.cfg.RowBytes)) % c.cfg.Banks
	row := int64(addr / uint64(c.cfg.RowBytes) / uint64(c.cfg.Banks))
	if c.openRow[bank] == row {
		c.stats.RowHits++
		return c.cfg.RowHitCycles
	}
	c.stats.RowMiss++
	c.openRow[bank] = row
	return c.cfg.AccessCycles
}
