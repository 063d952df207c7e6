package kernels

import (
	"fmt"

	"repro/internal/isa"
)

// SecretDep is the timing-leak probe workload: a fixed instruction
// stream whose memory access pattern is indexed by a one-bit secret.
// The program text is identical for both secrets — the loop walks
// Lines addresses spaced by a stride it loads from data memory, and
// only that stride word depends on the secret:
//
//	secret 0: stride 4128 = page + line — every address lands in its
//	  own cache set AND its own placement tag, so the walk is
//	  conflict-free on the deterministic (modulo-placement) cache;
//	secret 1: stride 4096 = exactly one page — every address lands in
//	  the same modulo set, so Lines > associativity lines thrash a
//	  4-way LRU set and every pass misses on the deterministic cache.
//
// Under random-modulo placement both strides map to i.i.d. uniform
// sets (each address has a distinct placement tag), so the two
// variants are timing-indistinguishable on RAND while secret 1 costs
// hundreds of extra misses per run on DET. Both walks touch Lines
// pages, below the 64-entry DTLB, so TLB behaviour does not differ. A
// per-run random delay loop (count drawn from the input RNG, also read
// from data memory) gives even the deterministic platform a
// non-degenerate timing distribution to compare.
type SecretDep struct {
	// Lines is the number of walked addresses per pass; must exceed the
	// cache associativity (4) for secret 1 to thrash, and stay below the
	// DTLB capacity (64) so paging stays secret-independent.
	Lines int
	// Passes repeats the walk, amplifying the hit/miss gap.
	Passes int
	// Secret selects the access pattern: 0 or 1.
	Secret int
	Seed   uint64
}

// Name identifies the kernel; the secret is deliberately part of the
// name so campaign caches never mix the two variants.
func (k SecretDep) Name() string {
	return fmt.Sprintf("secretdep-%dx%d-s%d", k.Lines, k.Passes, k.Secret)
}

// Validate checks the walk shape.
func (k SecretDep) Validate() error {
	if k.Lines < 8 || k.Lines > 56 {
		return fmt.Errorf("kernels: secretdep Lines %d outside [8,56]", k.Lines)
	}
	if k.Passes < 1 || k.Passes > 64 {
		return fmt.Errorf("kernels: secretdep Passes %d outside [1,64]", k.Passes)
	}
	if k.Secret != 0 && k.Secret != 1 {
		return fmt.Errorf("kernels: secretdep Secret %d not a bit", k.Secret)
	}
	return nil
}

// Data-segment layout. The control words share the base page; the
// walked array starts one page in so the strided addresses never touch
// them.
const (
	sdStrideOff = 0x0000 // int32: secret-dependent stride
	sdJitterOff = 0x0008 // int32: per-run delay-loop count
	sdSinkOff   = 0x0010 // int32: checksum of the walked words
	sdArrayOff  = 0x1000

	sdStrideA = 4128 // secret 0: page + cache line
	sdStrideB = 4096 // secret 1: exactly one page
	sdJitterN = 64   // delay count range [0, 64)
)

// strideOf returns the secret's stride.
func (k SecretDep) strideOf() int32 {
	if k.Secret == 0 {
		return sdStrideA
	}
	return sdStrideB
}

// Prepare assembles the walk and writes the stride, the delay count
// and the array words. The instruction stream is byte-identical for
// both secrets; only data memory differs.
func (k SecretDep) Prepare(run int) (*isa.Machine, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	bl := isa.NewBuilder(k.Name(), defaultCodeBase)
	// r20 base; r1 = stride; r2 = delay count; r3 = delay counter;
	// r4 = pass; r5 = passes; r6 = line; r7 = lines; r8 = addr;
	// r9 = loaded word; r10 = checksum.
	bl.Li(20, defaultDataBase)
	bl.Ld(1, 20, sdStrideOff)
	bl.Ld(2, 20, sdJitterOff)
	bl.Li(3, 0)
	bl.Label("delay")
	bl.Beq(3, 2, "walk")
	bl.Addi(3, 3, 1)
	bl.Jmp("delay")
	bl.Label("walk")
	bl.Li(4, 0)
	bl.Li(5, int32(k.Passes))
	bl.Li(10, 0)
	bl.Label("pass")
	bl.Li(6, 0)
	bl.Li(7, int32(k.Lines))
	bl.Label("line")
	bl.Mul(8, 6, 1)
	bl.Add(8, 8, 20)
	bl.Ld(9, 8, sdArrayOff)
	bl.Add(10, 10, 9)
	bl.Addi(6, 6, 1)
	bl.Blt(6, 7, "line")
	bl.Addi(4, 4, 1)
	bl.Blt(4, 5, "pass")
	bl.St(20, sdSinkOff, 10)
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

// writeData writes the stride, run's delay count and array words,
// drawn in inputs' order.
func (k SecretDep) writeData(mem *isa.Memory, run int) error {
	if err := mem.Write32(defaultDataBase+sdStrideOff, uint32(k.strideOf())); err != nil {
		return err
	}
	src := inputRNG(k.Seed, run)
	if err := mem.Write32(defaultDataBase+sdJitterOff, uint32(src.Intn(sdJitterN))); err != nil {
		return err
	}
	// Populate the union of both strides' addresses so data memory is
	// identical across secrets except for the stride word itself.
	for i := 0; i < k.Lines; i++ {
		for _, stride := range [...]int{sdStrideA, sdStrideB} {
			addr := uint64(defaultDataBase + sdArrayOff + i*stride)
			if err := mem.Write32(addr, src.Uint32()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reload implements platform.Reloader: it re-initializes a machine
// Prepare returned in place — registers cleared, memory zeroed
// page-wise (output words included), the run's data rewritten — with
// observable state identical to a fresh Prepare, skipping the
// program's re-assembly.
func (k SecretDep) Reload(m *isa.Machine, run int) error {
	m.Reset()
	m.Mem.Reset()
	return k.writeData(m.Mem, run)
}

// inputs derives the per-run delay count and array words. The draw
// order is fixed and secret-independent, so both variants of a run see
// identical data memory outside the stride word.
func (k SecretDep) inputs(run int) (jitter int32, words []uint32) {
	src := inputRNG(k.Seed, run)
	jitter = int32(src.Intn(sdJitterN))
	words = make([]uint32, 2*k.Lines)
	for i := range words {
		words[i] = src.Uint32()
	}
	return jitter, words
}

// PathOf: single-path kernel — both secrets execute the same path.
func (k SecretDep) PathOf(*isa.Machine) string { return "" }

// Reference computes the walk checksum host-side. Lines i with stride
// 4128 hold words[2i], with stride 4096 words[2i+1] (i = 0 collides:
// both strides start at the array base, so the later write — the
// stride-4096 word — wins for either secret).
func (k SecretDep) Reference(run int) int32 {
	_, words := k.inputs(run)
	var sum int32
	for p := 0; p < k.Passes; p++ {
		for i := 0; i < k.Lines; i++ {
			w := words[2*i]
			if k.Secret == 1 || i == 0 {
				w = words[2*i+1]
			}
			sum += int32(w)
		}
	}
	return sum
}

// Result reads the checksum from a finished machine.
func (k SecretDep) Result(m *isa.Machine) int32 {
	v, _ := m.Mem.Read32(defaultDataBase + sdSinkOff)
	return int32(v)
}
