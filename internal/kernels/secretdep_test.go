package kernels

import (
	"context"
	"testing"

	"repro/internal/platform"
)

func TestSecretDepMatchesReference(t *testing.T) {
	for secret := 0; secret <= 1; secret++ {
		k := SecretDep{Lines: 48, Passes: 8, Secret: secret, Seed: 5}
		for runIdx := 0; runIdx < 3; runIdx++ {
			m := run(t, k, runIdx)
			if got, want := k.Result(m), k.Reference(runIdx); got != want {
				t.Fatalf("secret %d run %d checksum %d, want %d", secret, runIdx, got, want)
			}
		}
	}
}

func TestSecretDepValidate(t *testing.T) {
	for _, k := range []SecretDep{
		{Lines: 4, Passes: 8},
		{Lines: 128, Passes: 8},
		{Lines: 48, Passes: 0},
		{Lines: 48, Passes: 8, Secret: 2},
	} {
		if _, err := k.Prepare(0); err == nil {
			t.Errorf("%+v accepted", k)
		}
	}
}

func TestSecretDepProgramTextIdentical(t *testing.T) {
	// The leak must come from data (the stride word), never from the
	// instruction stream: both secrets assemble to the same code.
	m0, err := SecretDep{Lines: 48, Passes: 8, Secret: 0, Seed: 5}.Prepare(0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := SecretDep{Lines: 48, Passes: 8, Secret: 1, Seed: 5}.Prepare(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m0.Prog.Code) != len(m1.Prog.Code) {
		t.Fatalf("code lengths differ: %d vs %d", len(m0.Prog.Code), len(m1.Prog.Code))
	}
	for i := range m0.Prog.Code {
		if m0.Prog.Code[i] != m1.Prog.Code[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, m0.Prog.Code[i], m1.Prog.Code[i])
		}
	}
}

func TestSecretDepInstructionCountSecretIndependent(t *testing.T) {
	// Same run index -> same delay count -> identical retired-instruction
	// counts for both secrets; only the memory hierarchy may tell them
	// apart.
	for runIdx := 0; runIdx < 4; runIdx++ {
		m0 := run(t, SecretDep{Lines: 48, Passes: 8, Secret: 0, Seed: 5}, runIdx)
		m1 := run(t, SecretDep{Lines: 48, Passes: 8, Secret: 1, Seed: 5}, runIdx)
		if m0.Steps() != m1.Steps() {
			t.Fatalf("run %d: %d vs %d instructions", runIdx, m0.Steps(), m1.Steps())
		}
	}
}

func TestSecretDepDETSeparatesSecrets(t *testing.T) {
	// On the deterministic platform secret 1 thrashes one cache set and
	// must run strictly slower than secret 0 on every run — the timing
	// channel the leak oracle is built to detect.
	p, err := platform.New(platform.DET())
	if err != nil {
		t.Fatal(err)
	}
	for runIdx := 0; runIdx < 5; runIdx++ {
		r0, err := p.ExecuteRun(context.Background(), SecretDep{Lines: 48, Passes: 8, Secret: 0, Seed: 5}, runIdx, 17)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := p.ExecuteRun(context.Background(), SecretDep{Lines: 48, Passes: 8, Secret: 1, Seed: 5}, runIdx, 17)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles <= r0.Cycles {
			t.Errorf("run %d: secret1 %d cycles <= secret0 %d", runIdx, r1.Cycles, r0.Cycles)
		}
	}
}
