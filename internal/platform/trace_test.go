package platform

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

// keptBlock is one fetch block as a sink receives it.
type keptBlock struct {
	pc      uint64
	classes []isa.Class
	taken   bool
	ops     []uint64
}

// keepBlocks records the 32-byte fetch blocks it is delivered into a
// blockTrace and keeps a copy of each.
type keepBlocks struct {
	trace  *blockTrace
	blocks []keptBlock
}

func (*keepBlocks) FetchBytes() int { return 32 }

func (k *keepBlocks) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	k.trace.add(pc, classes, taken, ops)
	k.blocks = append(k.blocks, keptBlock{pc, slices.Clone(classes), taken, slices.Clone(ops)})
}

// TestBlockTraceCursor records a multi-chunk block stream of loads,
// stores, integer multiply/divide, FDIV and FSQRT, and requires the
// cursor to decode exactly the blocks the machine delivered, twice over
// from a zero cursor (as the co-runner planner wraps), and then to
// report the end of the trace.
func TestBlockTraceCursor(t *testing.T) {
	m, err := mixRunner{stride: 32, iters: 1500, stores: true, fp: true, muldiv: true}.Prepare(0)
	if err != nil {
		t.Fatal(err)
	}
	k := &keepBlocks{trace: newBlockTrace(m.Prog)}
	if _, err := m.RunBlocks(k); err != nil {
		t.Fatal(err)
	}
	if len(k.trace.chunks) < 2 {
		t.Fatalf("trace has %d chunks, want several", len(k.trace.chunks))
	}
	for pass := 0; pass < 2; pass++ {
		var cur traceCursor
		for i, want := range k.blocks {
			pc, classes, taken, ops, ok := k.trace.next(&cur)
			got := keptBlock{pc, classes, taken, ops}
			if !ok || got.pc != want.pc || got.taken != want.taken ||
				!slices.Equal(got.classes, want.classes) || !slices.Equal(got.ops, want.ops) {
				t.Fatalf("pass %d block %d: decoded %+v (ok %v), recorded %+v", pass, i, got, ok, want)
			}
		}
		if _, _, _, _, ok := k.trace.next(&cur); ok {
			t.Fatalf("pass %d: cursor decoded a block past the trace's end", pass)
		}
	}
}
