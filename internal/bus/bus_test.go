package bus

import (
	"testing"
	"testing/quick"
)

func newBus(t *testing.T) *Bus {
	t.Helper()
	b, err := New(Config{TransferCycles: 4, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestValidate(t *testing.T) {
	if err := (Config{TransferCycles: 1, Cores: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{TransferCycles: 0, Cores: 1}).Validate(); err == nil {
		t.Error("zero transfer accepted")
	}
	if err := (Config{TransferCycles: 1, Cores: 0}).Validate(); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestIdleBusGrantsImmediately(t *testing.T) {
	b := newBus(t)
	if start := b.Request(0, 100, KindLineFill); start != 100 {
		t.Errorf("start = %d, want 100", start)
	}
	if b.FreeAt() != 104 {
		t.Errorf("freeAt = %d, want 104", b.FreeAt())
	}
}

func TestContendedRequestsQueue(t *testing.T) {
	b := newBus(t)
	b.Request(0, 10, KindLineFill) // occupies 10..14
	start := b.Request(1, 11, KindWrite)
	if start != 14 {
		t.Errorf("second request start = %d, want 14", start)
	}
	st := b.Stats()
	if st.Transactions != 2 {
		t.Errorf("transactions = %d", st.Transactions)
	}
	if st.WaitCycles != 3 {
		t.Errorf("wait = %d, want 3", st.WaitCycles)
	}
	if st.BusyCycles != 8 {
		t.Errorf("busy = %d, want 8", st.BusyCycles)
	}
}

func TestLateRequestAfterIdleGap(t *testing.T) {
	b := newBus(t)
	b.Request(0, 0, KindLineFill)
	if start := b.Request(1, 1000, KindLineFill); start != 1000 {
		t.Errorf("start = %d, want 1000 (bus long idle)", start)
	}
}

func TestReset(t *testing.T) {
	b := newBus(t)
	b.Request(0, 0, KindLineFill)
	b.Reset()
	if b.FreeAt() != 0 || b.Stats() != (Stats{}) {
		t.Error("reset incomplete")
	}
}

func TestRequestPanicsOnBadCore(t *testing.T) {
	b := newBus(t)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core accepted")
		}
	}()
	b.Request(4, 0, KindLineFill)
}

func TestKindString(t *testing.T) {
	if KindLineFill.String() != "fill" || KindWrite.String() != "write" || KindTLBWalk.String() != "walk" {
		t.Error("kind names")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestGrantMonotonicityProperty(t *testing.T) {
	// Grants never start before the request time and never overlap.
	b := newBus(t)
	var lastEnd uint64
	tm := uint64(0)
	f := func(adv uint16, core uint8) bool {
		tm += uint64(adv % 100)
		c := int(core) % 4
		start := b.Request(c, tm, KindLineFill)
		if start < tm {
			return false
		}
		if start < lastEnd {
			return false
		}
		lastEnd = start + b.Config().TransferCycles
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNoCorePriorityState is the regression test for the arbitration
// cleanup: the bus must hold no per-core arbitration state (the old
// implementation carried a dead round-robin lastCore field), so grants
// are a function of request timestamps alone — which core issues a
// request must never change any grant or counter.
func TestNoCorePriorityState(t *testing.T) {
	times := []uint64{0, 1, 1, 2, 9, 30, 30, 31}
	coreOrders := [][]int{
		{0, 1, 2, 3, 0, 1, 2, 3},
		{3, 2, 1, 0, 3, 2, 1, 0},
		{0, 0, 0, 0, 0, 0, 0, 0},
		{2, 2, 1, 3, 0, 0, 3, 1},
	}
	var wantStarts []uint64
	var wantStats Stats
	for i, cores := range coreOrders {
		b := newBus(t)
		starts := make([]uint64, len(times))
		for j, tm := range times {
			starts[j] = b.Request(cores[j], tm, KindLineFill)
		}
		if i == 0 {
			wantStarts, wantStats = starts, b.Stats()
			continue
		}
		for j := range starts {
			if starts[j] != wantStarts[j] {
				t.Errorf("core order %v: grant %d at %d, want %d (core identity changed a grant)",
					cores, j, starts[j], wantStarts[j])
			}
		}
		if b.Stats() != wantStats {
			t.Errorf("core order %v: stats %+v, want %+v", cores, b.Stats(), wantStats)
		}
	}
}
