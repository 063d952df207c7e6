package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/tvca"
	"repro/pkg/mbpta"
)

// directBuilds constructs each builtin kind's default workload without
// the registry: the reference the built workload's optional interfaces
// are checked against.
var directBuilds = map[string]func() (platform.Workload, error){
	"tvca":      func() (platform.Workload, error) { return tvca.New(tvca.DefaultConfig()) },
	"matmul":    func() (platform.Workload, error) { return kernels.MatMul{N: 16, Seed: 1}, nil },
	"crc32":     func() (platform.Workload, error) { return kernels.CRC32{Bytes: 2048, Seed: 1}, nil },
	"isort":     func() (platform.Workload, error) { return kernels.InsertionSort{N: 96, Seed: 1}, nil },
	"vecnorm":   func() (platform.Workload, error) { return kernels.VecNorm{N: 64, Seed: 1}, nil },
	"secretdep": func() (platform.Workload, error) { return kernels.SecretDep{Lines: 48, Passes: 8, Seed: 1}, nil },
}

// traceKeys returns w's trace keys (platform.TraceKeyer) for runs 0–2,
// or nil when it declares none.
func traceKeys(w platform.Workload) [][]byte {
	k, ok := w.(platform.TraceKeyer)
	if !ok {
		return nil
	}
	var keys [][]byte
	for run := 0; run < 3; run++ {
		key, ok := k.TraceKey(nil, run)
		if !ok {
			return nil
		}
		keys = append(keys, append([]byte{}, key...))
	}
	return keys
}

// sameWorkload compares two workloads the way the platform's machine
// reuse and trace replay do, reporting a panic (an uncomparable
// dynamic type) as an error.
func sameWorkload(a, b platform.Workload) (same bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("comparison panicked: %v", r)
		}
	}()
	return a == b, nil
}

// TestBuildKeepsOptionalInterfaces: for every registered kind, the
// built workload claims platform.Reloader exactly when the directly
// built one does, gives the same trace keys, round-trips its
// spec, and compares as an identity (equal to itself, unequal to a
// second Build of the same spec).
func TestBuildKeepsOptionalInterfaces(t *testing.T) {
	reg := fabric.BuiltinRegistry()
	for _, kind := range reg.Kinds() {
		t.Run(kind, func(t *testing.T) {
			direct, ok := directBuilds[kind]
			if !ok {
				t.Fatalf("no direct constructor for kind %q: add one to directBuilds", kind)
			}
			want, err := direct()
			if err != nil {
				t.Fatal(err)
			}
			spec := fabric.WorkloadSpec{Kind: kind, Params: json.RawMessage(`{}`)}
			got, err := reg.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name() != want.Name() {
				t.Fatalf("built %q, direct %q", got.Name(), want.Name())
			}
			_, wantR := want.(platform.Reloader)
			if _, gotR := got.(platform.Reloader); gotR != wantR {
				t.Errorf("built workload implements Reloader = %v, direct = %v", gotR, wantR)
			}
			if g, w := traceKeys(got), traceKeys(want); !reflect.DeepEqual(g, w) {
				t.Errorf("built workload trace keys = %v, direct = %v", g, w)
			}
			rs := got.WorkloadSpec()
			if rs.Kind != spec.Kind || !bytes.Equal(rs.Params, spec.Params) {
				t.Errorf("WorkloadSpec() = %s %s, built from %s %s", rs.Kind, rs.Params, spec.Kind, spec.Params)
			}
			if same, err := sameWorkload(got, got); err != nil || !same {
				t.Errorf("built workload == itself: %v, %v", same, err)
			}
			again, err := reg.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			if same, err := sameWorkload(got, again); err != nil || same {
				t.Errorf("two Builds compare equal: %v, %v", same, err)
			}
		})
	}
	// The table must exercise both answers of each forward.
	var reloaders, keyed int
	for _, kind := range reg.Kinds() {
		w, err := directBuilds[kind]()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.(platform.Reloader); ok {
			reloaders++
		}
		if traceKeys(w) != nil {
			keyed++
		}
	}
	if n := len(reg.Kinds()); reloaders == 0 || reloaders == n || keyed == 0 || keyed == n {
		t.Errorf("%d kinds, %d reloaders, %d keyed: the table no longer covers both cases", n, reloaders, keyed)
	}
}

// TestBuiltMatMulReplaysBitIdentical: a registry-built MatMul takes the
// decode-once replay path on both platform builds, and every replayed
// run matches a directly built MatMul interpreted on a replay-free
// board.
func TestBuiltMatMulReplaysBitIdentical(t *testing.T) {
	const runs = 40
	w, err := fabric.BuiltinRegistry().Build(fabric.WorkloadSpec{
		Kind: "matmul", Params: json.RawMessage(`{"N":8,"Seed":3}`)})
	if err != nil {
		t.Fatal(err)
	}
	direct := kernels.MatMul{N: 8, Seed: 3}
	for _, pc := range []platform.Config{platform.DET(), platform.RAND()} {
		fast, err := platform.New(pc)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := platform.New(pc)
		if err != nil {
			t.Fatal(err)
		}
		slow.SetReplay(false)
		for i := 0; i < runs; i++ {
			seed := platform.DeriveRunSeed(11, i)
			fr, err := fast.ExecuteRun(context.Background(), w, i, seed)
			if err != nil {
				t.Fatalf("%s registry-built run %d: %v", pc.Name, i, err)
			}
			sr, err := slow.ExecuteRun(context.Background(), direct, i, seed)
			if err != nil {
				t.Fatalf("%s direct run %d: %v", pc.Name, i, err)
			}
			if fr != sr {
				t.Fatalf("%s run %d: registry-built %+v != direct %+v", pc.Name, i, fr, sr)
			}
		}
		if st := fast.BoardStats(); st.ReplayRuns != runs-1 || st.InterpretRuns != 1 {
			t.Errorf("%s: %d replayed + %d interpreted runs, want %d + 1",
				pc.Name, st.ReplayRuns, st.InterpretRuns, runs-1)
		}
	}
}

// TestBuiltTVCAFingerprintMatchesDirect: a TVCA campaign over a
// registry-built workload (machine reuse through the forwarded Reload)
// fingerprints identically to the same campaign over tvca.New. Worker
// restarts are disabled: a restart onto a fresh board would hide a
// panicking workload identity check behind a correct fingerprint.
func TestBuiltTVCAFingerprintMatchesDirect(t *testing.T) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4
	params, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, err := fabric.BuiltinRegistry().Build(fabric.WorkloadSpec{Kind: "tvca", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := built.(platform.Reloader); !ok {
		t.Fatal("registry-built TVCA hides Reloader")
	}
	direct, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func(w platform.Workload) string {
		rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), w,
			mbpta.WithRuns(120), mbpta.WithBatchSize(20), mbpta.WithBaseSeed(42),
			mbpta.WithParallelism(1), mbpta.WithSupervision(-1, 0), mbpta.MeasureOnly())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Fingerprint()
	}
	if got, want := fingerprint(built), fingerprint(direct); got != want {
		t.Fatalf("registry-built fingerprint %s, direct %s", got, want)
	}
}
