package isa

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// randomProgram emits a terminating random program: straight-line
// arithmetic/memory/FP operations plus bounded counted loops. Registers
// r1..r15 and f1..f15 are fair game; r20 is the data base; r25..r27 are
// reserved loop counters (up to 3 nested loops).
func randomProgram(src rng.Source, maxOps int) *Builder {
	b := NewBuilder("fuzz", 0x4000)
	b.Li(20, 0x100000)
	loopDepth := 0
	reg := func() Reg { return Reg(1 + rng.Intn(src, 15)) }
	freg := func() FReg { return FReg(1 + rng.Intn(src, 15)) }
	loopLabels := []string{}
	labelSeq := 0
	for op := 0; op < maxOps; op++ {
		switch rng.Intn(src, 14) {
		case 0:
			b.Addi(reg(), reg(), int32(rng.Intn(src, 100)-50))
		case 1:
			b.Add(reg(), reg(), reg())
		case 2:
			b.Sub(reg(), reg(), reg())
		case 3:
			b.Mul(reg(), reg(), reg())
		case 4:
			b.Xor(reg(), reg(), reg())
		case 5:
			b.Sll(reg(), reg(), int32(rng.Intn(src, 31)))
		case 6:
			// Bounded-address store then load.
			addr := int32(rng.Intn(src, 1024) * 4)
			b.St(20, addr, reg())
			b.Ld(reg(), 20, addr)
		case 7:
			b.Fadd(freg(), freg(), freg())
		case 8:
			b.Fmul(freg(), freg(), freg())
		case 9:
			b.Fcvt(freg(), reg())
		case 10:
			b.Fsqrt(freg(), freg())
		case 11:
			// FDIV with a guaranteed non-zero divisor register f14.
			b.Li(14, int32(1+rng.Intn(src, 9)))
			b.Fcvt(14, 14)
			b.Fdiv(freg(), freg(), 14)
		case 12:
			// Open a bounded loop (depth <= 3).
			if loopDepth < 3 {
				counter := Reg(25 + loopDepth)
				label := labelFor(labelSeq)
				labelSeq++
				b.Li(counter, 0)
				b.Label(label)
				loopLabels = append(loopLabels, label)
				loopDepth++
			}
		case 13:
			// Close the innermost loop with a bounded trip count.
			if loopDepth > 0 {
				loopDepth--
				counter := Reg(25 + loopDepth)
				label := loopLabels[len(loopLabels)-1]
				loopLabels = loopLabels[:len(loopLabels)-1]
				trip := int32(2 + rng.Intn(src, 6))
				b.Addi(counter, counter, 1)
				b.Li(24, trip)
				b.Blt(counter, 24, label)
			}
		}
	}
	// Close any dangling loops.
	for loopDepth > 0 {
		loopDepth--
		counter := Reg(25 + loopDepth)
		label := loopLabels[len(loopLabels)-1]
		loopLabels = loopLabels[:len(loopLabels)-1]
		b.Addi(counter, counter, 1)
		b.Li(24, 3)
		b.Blt(counter, 24, label)
	}
	b.Halt()
	return b
}

func labelFor(seq int) string {
	return fmt.Sprintf("loop_%d", seq)
}

// TestRandomProgramsTerminateDeterministically is the interpreter's
// robustness property test: any program the generator emits (a superset
// of what the workload packages produce, minus integer division)
// terminates, never faults, and reruns bit-identically.
func TestRandomProgramsTerminateDeterministically(t *testing.T) {
	src := rng.NewXoroshiro128(20260704)
	for trial := 0; trial < 200; trial++ {
		b := randomProgram(src, 60)
		prog, err := b.Build()
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		run := func() ([NumRegs]int32, uint64) {
			m := NewMachine(prog, NewMemory())
			m.StepLimit = 10_000_000
			steps, err := m.RunBlocks(nil)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			var regs [NumRegs]int32
			for r := 0; r < NumRegs; r++ {
				regs[r] = m.Reg(Reg(r))
			}
			return regs, steps
		}
		r1, s1 := run()
		r2, s2 := run()
		if r1 != r2 || s1 != s2 {
			t.Fatalf("trial %d: nondeterministic rerun", trial)
		}
	}
}

// TestRandomProgramsUnderTiming runs a batch of random programs through
// the full timing pipeline on the randomized platform geometry: the
// event stream must never panic the cache/TLB/FPU models, and cycles
// must be at least the instruction count.
func TestRandomProgramsUnderTiming(t *testing.T) {
	src := rng.NewXoroshiro128(77)
	for trial := 0; trial < 50; trial++ {
		b := randomProgram(src, 80)
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine(prog, NewMemory())
		m.StepLimit = 10_000_000
		var blocks blockCounter
		steps, err := m.RunBlocks(&blocks)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if blocks.instrs != steps {
			t.Fatalf("trial %d: %d instructions in blocks for %d steps", trial, blocks.instrs, steps)
		}
	}
}

// blockCounter counts the instructions of the 32-byte fetch blocks it
// is delivered.
type blockCounter struct{ instrs uint64 }

func (*blockCounter) FetchBytes() int { return 32 }

func (c *blockCounter) ConsumeBlock(_ uint64, classes []Class, _ bool, _ []uint64) {
	c.instrs += uint64(len(classes))
}
