// Package isatest maps arbitrary bytes onto programs for the fuzz
// targets that exercise the interpreter (isa's FuzzInterpreter) and the
// timing model behind it (platform's FuzzFetchBlocks).
package isatest

import (
	"encoding/binary"

	"repro/internal/isa"
)

// DecodeProgram maps arbitrary fuzzer bytes onto a program, 8 bytes per
// instruction: opcode (mod 48, so invalid opcodes past OpFtoi are
// reachable), the three integer and three FP register selectors (mod
// 32), a 16-bit signed immediate and a 16-bit signed branch target. A
// Halt closes the program. It produces wild control flow, unaligned
// addresses, division by zero and undecodable opcodes on purpose.
func DecodeProgram(data []byte) *isa.Program {
	code := make([]isa.Instr, 0, len(data)/8+1)
	for len(data) >= 8 {
		code = append(code, isa.Instr{
			Op:     isa.Op(data[0] % 48),
			Rd:     isa.Reg(data[1] % isa.NumRegs),
			Rs1:    isa.Reg(data[2] % isa.NumRegs),
			Rs2:    isa.Reg(data[3] % isa.NumRegs),
			Fd:     isa.FReg(data[1] % isa.NumRegs),
			Fs1:    isa.FReg(data[2] % isa.NumRegs),
			Fs2:    isa.FReg(data[3] % isa.NumRegs),
			Imm:    int32(int16(binary.LittleEndian.Uint16(data[4:6]))),
			Target: int32(int16(binary.LittleEndian.Uint16(data[6:8]))),
		})
		data = data[8:]
	}
	code = append(code, isa.Instr{Op: isa.OpHalt})
	return &isa.Program{Name: "fuzz", CodeBase: 0x4000, Code: code}
}
