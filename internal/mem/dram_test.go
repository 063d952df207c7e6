package mem

import (
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Config{
		{Policy: "bogus", AccessCycles: 10},
		{Policy: PolicyClosedPage, AccessCycles: 0},
		{Policy: PolicyOpenPage, AccessCycles: 10, RowHitCycles: 0, Banks: 4, RowBytes: 2048},
		{Policy: PolicyOpenPage, AccessCycles: 10, RowHitCycles: 11, Banks: 4, RowBytes: 2048},
		{Policy: PolicyOpenPage, AccessCycles: 10, RowHitCycles: 5, Banks: 0, RowBytes: 2048},
		{Policy: PolicyOpenPage, AccessCycles: 10, RowHitCycles: 5, Banks: 4, RowBytes: 1000},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestClosedPageIsConstant(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{0, 64, 4096, 1 << 20, 0xDEADBEE0} {
		if lat := c.Latency(addr); lat != 56 {
			t.Errorf("latency(%#x) = %d, want 56", addr, lat)
		}
	}
	if c.Stats().Accesses != 5 {
		t.Errorf("accesses = %d", c.Stats().Accesses)
	}
}

func TestOpenPageRowHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyOpenPage
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First access to a row: miss; second in the same row: hit.
	if lat := c.Latency(0); lat != cfg.AccessCycles {
		t.Errorf("cold access = %d, want %d", lat, cfg.AccessCycles)
	}
	if lat := c.Latency(64); lat != cfg.RowHitCycles {
		t.Errorf("same-row access = %d, want %d", lat, cfg.RowHitCycles)
	}
	// Same bank, different row: conflict.
	conflictAddr := uint64(cfg.RowBytes * cfg.Banks)
	if lat := c.Latency(conflictAddr); lat != cfg.AccessCycles {
		t.Errorf("row conflict = %d, want %d", lat, cfg.AccessCycles)
	}
	st := c.Stats()
	if st.RowHits != 1 || st.RowMiss != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestOpenPageBanksAreIndependent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyOpenPage
	c, _ := New(cfg)
	// Touch one row in each bank, then re-touch: all hits.
	for b := 0; b < cfg.Banks; b++ {
		c.Latency(uint64(b * cfg.RowBytes))
	}
	for b := 0; b < cfg.Banks; b++ {
		if lat := c.Latency(uint64(b*cfg.RowBytes) + 8); lat != cfg.RowHitCycles {
			t.Errorf("bank %d second access = %d, want hit %d", b, lat, cfg.RowHitCycles)
		}
	}
}

func TestReset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyOpenPage
	c, _ := New(cfg)
	c.Latency(0)
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Error("stats survive reset")
	}
	// Row buffer closed: cold access again.
	if lat := c.Latency(0); lat != cfg.AccessCycles {
		t.Errorf("post-reset access = %d, want %d", lat, cfg.AccessCycles)
	}
}
