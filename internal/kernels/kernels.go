// Package kernels provides a small suite of benchmark workloads beyond
// the TVCA case study, each generated through the ISA builder with a
// host-side reference model: a dense matrix multiply, a table-driven
// CRC-32, an insertion sort (data-dependent branching) and a
// vector-normalization kernel (FDIV/FSQRT heavy). They serve three
// purposes: exercising the MBPTA pipeline on workloads with different
// jitter profiles, acting as co-runners in contention studies, and
// regression-testing the code generator beyond one application.
//
// All kernels implement platform.Workload; inputs are derived
// deterministically from (seed, run).
package kernels

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/rng"
)

// Common layout: every kernel links its code at CodeBase and keeps its
// data at DataBase.
const (
	defaultCodeBase = 0x8000
	defaultDataBase = 0x200000
)

// inputRNG derives the per-run input generator: a value, so the
// kernels' data writers draw from the stack and a reloaded run
// allocates nothing.
func inputRNG(seed uint64, run int) rng.Xoroshiro128 {
	z := seed ^ (0x9E3779B97F4A7C15 * uint64(run+101))
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	var src rng.Xoroshiro128
	src.Seed(z ^ (z >> 31))
	return src
}

// MatMul is C = A x B over NxN float64 matrices.
type MatMul struct {
	N    int
	Seed uint64
}

// Name identifies the kernel.
func (k MatMul) Name() string { return fmt.Sprintf("matmul-%d", k.N) }

// Validate checks the dimension.
func (k MatMul) Validate() error {
	if k.N < 2 || k.N > 64 {
		return fmt.Errorf("kernels: matmul N %d outside [2,64]", k.N)
	}
	return nil
}

// offsets within the data segment.
func (k MatMul) offsets() (a, b, c int32) {
	n := int32(k.N)
	return 0, n * n * 8, 2 * n * n * 8
}

// Prepare assembles the kernel and writes per-run random matrices.
func (k MatMul) Prepare(run int) (*isa.Machine, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	n := int32(k.N)
	aOff, bOff, cOff := k.offsets()

	bl := isa.NewBuilder(k.Name(), defaultCodeBase)
	// r20 = base, r1 = i, r2 = j, r3 = k, r4 = n.
	bl.Li(20, defaultDataBase)
	bl.Li(4, n)
	bl.Li(1, 0)
	bl.Label("i")
	bl.Li(2, 0)
	bl.Label("j")
	bl.Fcvt(1, 0)
	bl.Li(3, 0)
	bl.Label("k")
	bl.Mul(5, 1, 4)
	bl.Add(5, 5, 3)
	bl.Sll(5, 5, 3)
	bl.Add(5, 5, 20)
	bl.Fld(2, 5, aOff)
	bl.Mul(6, 3, 4)
	bl.Add(6, 6, 2)
	bl.Sll(6, 6, 3)
	bl.Add(6, 6, 20)
	bl.Fld(3, 6, bOff)
	bl.Fmul(2, 2, 3)
	bl.Fadd(1, 1, 2)
	bl.Addi(3, 3, 1)
	bl.Blt(3, 4, "k")
	bl.Mul(5, 1, 4)
	bl.Add(5, 5, 2)
	bl.Sll(5, 5, 3)
	bl.Add(5, 5, 20)
	bl.Fst(5, cOff, 1)
	bl.Addi(2, 2, 1)
	bl.Blt(2, 4, "j")
	bl.Addi(1, 1, 1)
	bl.Blt(1, 4, "i")
	bl.Halt()
	prog, err := bl.Build()
	if err != nil {
		return nil, err
	}

	mem := isa.NewMemory()
	src := inputRNG(k.Seed, run)
	for i := int32(0); i < n*n; i++ {
		if err := mem.Write64(uint64(defaultDataBase+aOff+8*i), src.Float64()); err != nil {
			return nil, err
		}
		if err := mem.Write64(uint64(defaultDataBase+bOff+8*i), src.Float64()); err != nil {
			return nil, err
		}
	}
	return isa.NewMachine(prog, mem), nil
}

// PathOf: single-path kernel.
func (k MatMul) PathOf(*isa.Machine) string { return "" }

// TraceKey implements platform.TraceKeyer with the empty key: the loop
// bounds, branch outcomes and effective addresses are all fixed by N,
// and the kernel has no FDIV/FSQRT (whose operand-dependent latency
// would make the event stream input-dependent), so the
// retired-instruction stream is identical for every run index — only
// the data values differ, and the timing model never sees them. The
// platform may therefore record the stream once and replay it. The
// other kernels are input-dependent (CRC32's table addresses,
// InsertionSort's branches, VecNorm's FDIV/FSQRT operands) and declare
// no key.
func (k MatMul) TraceKey(dst []byte, run int) ([]byte, bool) { return dst[:0], true }

// Reference computes C host-side with the generated code's operation
// order (row-major accumulate), bit-exact.
func (k MatMul) Reference(run int) [][]float64 {
	src := inputRNG(k.Seed, run)
	n := k.N
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := 0; i < n*n; i++ {
		a[i] = src.Float64()
		b[i] = src.Float64()
	}
	c := make([][]float64, n)
	for i := 0; i < n; i++ {
		c[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			acc := 0.0
			for l := 0; l < n; l++ {
				acc += a[i*n+l] * b[l*n+j]
			}
			c[i][j] = acc
		}
	}
	return c
}

// ResultAt reads C[i][j] from a finished machine.
func (k MatMul) ResultAt(m *isa.Machine, i, j int) float64 {
	_, _, cOff := k.offsets()
	v, _ := m.Mem.Read64(uint64(defaultDataBase) + uint64(cOff) + uint64(8*(i*k.N+j)))
	return v
}

// CRC32 computes a table-driven CRC-32 (IEEE polynomial) over a byte
// buffer stored as words: integer-only, with a 1 KiB lookup table whose
// cache behaviour dominates.
type CRC32 struct {
	Bytes int // buffer length in bytes (multiple of 4)
	Seed  uint64
}

// Name identifies the kernel.
func (k CRC32) Name() string { return fmt.Sprintf("crc32-%dB", k.Bytes) }

// Validate checks the buffer length.
func (k CRC32) Validate() error {
	if k.Bytes < 4 || k.Bytes%4 != 0 || k.Bytes > 1<<20 {
		return fmt.Errorf("kernels: crc32 length %d invalid", k.Bytes)
	}
	return nil
}

const (
	crcTableOff = 0x0000 // 256 x int32
	crcDataOff  = 0x1000
	crcOutOff   = 0x0800
)

// crcTab is the IEEE CRC-32 table.
var crcTab = crcTable()

// crcTable computes the IEEE CRC-32 table.
func crcTable() [256]uint32 {
	var t [256]uint32
	for i := range t {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xEDB88320 ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		t[i] = c
	}
	return t
}

// Prepare assembles the CRC kernel and writes the table and buffer.
func (k CRC32) Prepare(run int) (*isa.Machine, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	bl := isa.NewBuilder(k.Name(), defaultCodeBase)
	// r20 base, r1 = word index, r2 = word count, r3 = crc, r4 = word,
	// r5 = byte counter, r6..r9 temps.
	bl.Li(20, defaultDataBase)
	bl.Li(1, 0)
	bl.Li(2, int32(k.Bytes/4))
	bl.Li(3, -1) // crc = 0xFFFFFFFF
	bl.Label("word")
	bl.Sll(6, 1, 2)
	bl.Add(6, 6, 20)
	bl.Ld(4, 6, crcDataOff)
	bl.Li(5, 0)
	bl.Label("byte")
	// idx = (crc ^ word) & 0xFF
	bl.Xor(7, 3, 4)
	bl.Andi(7, 7, 0xFF)
	// crc = table[idx] ^ (crc >>> 8)
	bl.Sll(8, 7, 2)
	bl.Add(8, 8, 20)
	bl.Ld(9, 8, crcTableOff)
	bl.Srl(3, 3, 8)
	bl.Xor(3, 9, 3)
	// word >>= 8
	bl.Srl(4, 4, 8)
	bl.Addi(5, 5, 1)
	bl.Li(10, 4)
	bl.Blt(5, 10, "byte")
	bl.Addi(1, 1, 1)
	bl.Blt(1, 2, "word")
	bl.Xori(3, 3, -1) // crc ^= 0xFFFFFFFF
	bl.St(20, crcOutOff, 3)
	bl.Halt()
	prog, err := bl.Build()
	if err != nil {
		return nil, err
	}

	mem := isa.NewMemory()
	if err := k.writeData(mem, run); err != nil {
		return nil, err
	}
	return isa.NewMachine(prog, mem), nil
}

// writeData writes the table and run's buffer.
func (k CRC32) writeData(mem *isa.Memory, run int) error {
	for i, v := range crcTab {
		if err := mem.Write32(uint64(defaultDataBase+crcTableOff+4*i), v); err != nil {
			return err
		}
	}
	src := inputRNG(k.Seed, run)
	for i := 0; i < k.Bytes/4; i++ {
		if err := mem.Write32(uint64(defaultDataBase+crcDataOff+4*i), src.Uint32()); err != nil {
			return err
		}
	}
	return nil
}

// Reload implements platform.Reloader: it re-initializes a machine
// Prepare returned in place — registers cleared, memory zeroed
// page-wise (output words included), the run's data rewritten — with
// observable state identical to a fresh Prepare, skipping the
// program's re-assembly.
func (k CRC32) Reload(m *isa.Machine, run int) error {
	m.Reset()
	m.Mem.Reset()
	return k.writeData(m.Mem, run)
}

// PathOf: single-path kernel.
func (k CRC32) PathOf(*isa.Machine) string { return "" }

// Reference computes the CRC host-side.
func (k CRC32) Reference(run int) uint32 {
	src := inputRNG(k.Seed, run)
	crc := ^uint32(0)
	for i := 0; i < k.Bytes/4; i++ {
		w := src.Uint32()
		for b := 0; b < 4; b++ {
			crc = crcTab[(crc^w)&0xFF] ^ (crc >> 8)
			w >>= 8
		}
	}
	return ^crc
}

// Result reads the computed CRC from a finished machine.
func (k CRC32) Result(m *isa.Machine) uint32 {
	v, _ := m.Mem.Read32(uint64(defaultDataBase + crcOutOff))
	return v
}

// InsertionSort sorts N int32 keys in place: heavy data-dependent
// branching, the execution time itself depends on the input permutation.
type InsertionSort struct {
	N    int
	Seed uint64
}

// Name identifies the kernel.
func (k InsertionSort) Name() string { return fmt.Sprintf("isort-%d", k.N) }

// Validate checks the size.
func (k InsertionSort) Validate() error {
	if k.N < 2 || k.N > 4096 {
		return fmt.Errorf("kernels: isort N %d outside [2,4096]", k.N)
	}
	return nil
}

// Prepare assembles the sort and writes per-run random keys.
func (k InsertionSort) Prepare(run int) (*isa.Machine, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	bl := isa.NewBuilder(k.Name(), defaultCodeBase)
	// r20 base; r1 = i; r2 = n; r3 = j; r4 = key; r5/r6 addr; r7 = a[j].
	bl.Li(20, defaultDataBase)
	bl.Li(2, int32(k.N))
	bl.Li(1, 1)
	bl.Label("outer")
	bl.Sll(5, 1, 2)
	bl.Add(5, 5, 20)
	bl.Ld(4, 5, 0) // key = a[i]
	bl.Mov(3, 1)   // j = i
	bl.Label("inner")
	bl.Li(6, 0)
	bl.Beq(3, 6, "insert") // j == 0 -> insert
	bl.Subi(6, 3, 1)
	bl.Sll(6, 6, 2)
	bl.Add(6, 6, 20)
	bl.Ld(7, 6, 0)         // a[j-1]
	bl.Blt(7, 4, "insert") // a[j-1] < key -> insert
	bl.Sll(8, 3, 2)        // a[j] = a[j-1]
	bl.Add(8, 8, 20)
	bl.St(8, 0, 7)
	bl.Subi(3, 3, 1)
	bl.Jmp("inner")
	bl.Label("insert")
	bl.Sll(8, 3, 2)
	bl.Add(8, 8, 20)
	bl.St(8, 0, 4) // a[j] = key
	bl.Addi(1, 1, 1)
	bl.Blt(1, 2, "outer")
	bl.Halt()
	prog, err := bl.Build()
	if err != nil {
		return nil, err
	}

	mem := isa.NewMemory()
	if err := k.writeData(mem, run); err != nil {
		return nil, err
	}
	return isa.NewMachine(prog, mem), nil
}

// writeData writes run's keys.
func (k InsertionSort) writeData(mem *isa.Memory, run int) error {
	src := inputRNG(k.Seed, run)
	for i := 0; i < k.N; i++ {
		v := int32(src.Intn(1 << 20))
		if err := mem.Write32(uint64(defaultDataBase+4*i), uint32(v)); err != nil {
			return err
		}
	}
	return nil
}

// Reload implements platform.Reloader: it re-initializes a machine
// Prepare returned in place — registers cleared, memory zeroed
// page-wise (output words included), the run's data rewritten — with
// observable state identical to a fresh Prepare, skipping the
// program's re-assembly.
func (k InsertionSort) Reload(m *isa.Machine, run int) error {
	m.Reset()
	m.Mem.Reset()
	return k.writeData(m.Mem, run)
}

// PathOf: sorting has no discrete mode paths; per-input timing
// variation is continuous.
func (k InsertionSort) PathOf(*isa.Machine) string { return "" }

// Keys reads the (sorted) array from a finished machine.
func (k InsertionSort) Keys(m *isa.Machine) []int32 {
	out := make([]int32, k.N)
	for i := range out {
		v, _ := m.Mem.Read32(uint64(defaultDataBase + 4*i))
		out[i] = int32(v)
	}
	return out
}

// VecNorm normalizes N float64 vectors of dimension 4 — an FDIV/FSQRT
// dominated kernel exercising the FPU jitter control.
type VecNorm struct {
	N    int
	Seed uint64
}

// Name identifies the kernel.
func (k VecNorm) Name() string { return fmt.Sprintf("vecnorm-%d", k.N) }

// Validate checks the count.
func (k VecNorm) Validate() error {
	if k.N < 1 || k.N > 4096 {
		return fmt.Errorf("kernels: vecnorm N %d outside [1,4096]", k.N)
	}
	return nil
}

// Prepare assembles the kernel and writes per-run random vectors.
func (k VecNorm) Prepare(run int) (*isa.Machine, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	bl := isa.NewBuilder(k.Name(), defaultCodeBase)
	// r20 base; r1 = vector index; r2 = n; r5 = vector addr.
	bl.Li(20, defaultDataBase)
	bl.Li(2, int32(k.N))
	bl.Li(1, 0)
	bl.Label("vec")
	bl.Sll(5, 1, 5) // 32 bytes per vector
	bl.Add(5, 5, 20)
	// norm2 = sum of squares of the 4 lanes.
	bl.Fcvt(1, 0)
	for lane := int32(0); lane < 4; lane++ {
		bl.Fld(2, 5, 8*lane)
		bl.Fmul(2, 2, 2)
		bl.Fadd(1, 1, 2)
	}
	bl.Fsqrt(3, 1) // norm
	// Divide each lane by the norm and store back.
	for lane := int32(0); lane < 4; lane++ {
		bl.Fld(2, 5, 8*lane)
		bl.Fdiv(2, 2, 3)
		bl.Fst(5, 8*lane, 2)
	}
	bl.Addi(1, 1, 1)
	bl.Blt(1, 2, "vec")
	bl.Halt()
	prog, err := bl.Build()
	if err != nil {
		return nil, err
	}

	mem := isa.NewMemory()
	if err := k.writeData(mem, run); err != nil {
		return nil, err
	}
	return isa.NewMachine(prog, mem), nil
}

// writeData writes run's vectors.
func (k VecNorm) writeData(mem *isa.Memory, run int) error {
	src := inputRNG(k.Seed, run)
	for i := 0; i < 4*k.N; i++ {
		v := src.Float64() + 0.1 // avoid zero vectors
		if err := mem.Write64(uint64(defaultDataBase+8*i), v); err != nil {
			return err
		}
	}
	return nil
}

// Reload implements platform.Reloader: it re-initializes a machine
// Prepare returned in place — registers cleared, memory zeroed
// page-wise (output words included), the run's data rewritten — with
// observable state identical to a fresh Prepare, skipping the
// program's re-assembly.
func (k VecNorm) Reload(m *isa.Machine, run int) error {
	m.Reset()
	m.Mem.Reset()
	return k.writeData(m.Mem, run)
}

// PathOf: single-path kernel.
func (k VecNorm) PathOf(*isa.Machine) string { return "" }

// Lane reads normalized vector i, lane l from a finished machine.
func (k VecNorm) Lane(m *isa.Machine, i, l int) float64 {
	v, _ := m.Mem.Read64(uint64(defaultDataBase + 32*i + 8*l))
	return v
}
