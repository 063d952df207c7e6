package isa_test

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/isatest"
)

// FuzzInterpreter throws arbitrary instruction streams at the
// interpreter: it must never panic, must fail only with its documented
// error classes, and must replay bit-identically — the property the
// whole measurement protocol rests on.
func FuzzInterpreter(f *testing.F) {
	f.Add([]byte{})
	// add r1, r1, r1; jmp @0 — a tight infinite loop (step limit).
	f.Add([]byte{
		byte(isa.OpAdd), 1, 1, 1, 0, 0, 0, 0,
		byte(isa.OpJmp), 0, 0, 0, 0, 0, 0, 0,
	})
	// div r1, r2, r0 — divide by zero.
	f.Add([]byte{byte(isa.OpDiv), 1, 2, 0, 0, 0, 0, 0})
	// ld r1, [r0+3] — unaligned load.
	f.Add([]byte{byte(isa.OpLd), 1, 0, 0, 3, 0, 0, 0})
	// ret [r5] with a garbage register value — PC out of range.
	f.Add([]byte{
		byte(isa.OpAddi), 5, 0, 0, 0x39, 0x30, 0, 0,
		byte(isa.OpRet), 0, 5, 0, 0, 0, 0, 0,
	})
	// Opcode 47 — undecodable.
	f.Add([]byte{47, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*4096 {
			t.Skip("program too large")
		}
		prog := isatest.DecodeProgram(data)
		run := func() (uint64, [isa.NumRegs]int32, error) {
			m := isa.NewMachine(prog, isa.NewMemory())
			m.StepLimit = 50_000
			var blocks blockCounter
			steps, err := m.RunBlocks(&blocks)
			if blocks.instrs != steps {
				t.Fatalf("%d instructions in blocks for %d retired instructions", blocks.instrs, steps)
			}
			var regs [isa.NumRegs]int32
			for r := 0; r < isa.NumRegs; r++ {
				regs[r] = m.Reg(isa.Reg(r))
			}
			return steps, regs, err
		}

		steps, regs, err := run()
		if err != nil {
			known := false
			for _, want := range []error{
				isa.ErrDivideByZero, isa.ErrPCOutOfRange, isa.ErrUnalignedAddr,
				isa.ErrStepLimit, isa.ErrUnknownOpcode,
			} {
				if errors.Is(err, want) {
					known = true
					break
				}
			}
			if !known {
				t.Fatalf("undocumented error class: %v", err)
			}
		}

		steps2, regs2, err2 := run()
		if steps != steps2 || regs != regs2 || (err == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic replay: steps %d/%d, err %v/%v", steps, steps2, err, err2)
		}
		if err != nil && err.Error() != err2.Error() {
			t.Fatalf("nondeterministic error: %v vs %v", err, err2)
		}
	})
}

// blockCounter counts the instructions of the 32-byte fetch blocks it
// is delivered.
type blockCounter struct{ instrs uint64 }

func (*blockCounter) FetchBytes() int { return 32 }

func (c *blockCounter) ConsumeBlock(_ uint64, classes []isa.Class, _ bool, _ []uint64) {
	c.instrs += uint64(len(classes))
}
