package fabric

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/tvca"
)

// WorkloadSpec names a workload and its parameters in a serializable
// form — the unit a remote executor (or the pWCET service) can rebuild
// a workload from. Params is the JSON encoding of the kind's parameter
// struct (tvca.Config for "tvca", kernels.MatMul for "matmul", ...);
// empty Params selects the kind's defaults.
type WorkloadSpec struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// SpecWorkload is a Workload that can be reconstructed from a spec on
// another machine. Only sessions whose workload implements it are
// dispatched to remote executors; everything else executes on the
// in-process pool.
type SpecWorkload interface {
	platform.Workload
	WorkloadSpec() WorkloadSpec
}

// SessionSpec is everything a remote executor needs to execute leases
// of one session: the full platform build, the workload spec, and the
// seed derivation base. It crosses the wire as a JSON control frame.
type SessionSpec struct {
	Session    uint64          `json:"session"`
	Platform   platform.Config `json:"platform"`
	Workload   WorkloadSpec    `json:"workload"`
	BaseSeed   uint64          `json:"base_seed"`
	RunTimeout time.Duration   `json:"run_timeout,omitempty"`
}

// Registry maps workload kinds to constructors.
type Registry struct {
	mu       sync.RWMutex
	builders map[string]func(json.RawMessage) (platform.Workload, error)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{builders: make(map[string]func(json.RawMessage) (platform.Workload, error))}
}

// Register installs a constructor for kind, replacing any previous one.
func (r *Registry) Register(kind string, build func(params json.RawMessage) (platform.Workload, error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.builders[kind] = build
}

// Kinds lists the registered workload kinds, sorted.
func (r *Registry) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.builders))
	for k := range r.builders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build instantiates spec. The result implements SpecWorkload, so a
// campaign built from a spec is remote-dispatchable by construction,
// and keeps the built workload's Reloader and TraceKeyer fast paths.
func (r *Registry) Build(spec WorkloadSpec) (SpecWorkload, error) {
	r.mu.RLock()
	build, ok := r.builders[spec.Kind]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fabric: unknown workload kind %q (have %v)", spec.Kind, r.Kinds())
	}
	w, err := build(spec.Params)
	if err != nil {
		return nil, fmt.Errorf("fabric: build workload %q: %w", spec.Kind, err)
	}
	s := &specced{Workload: w, spec: spec}
	if rl, ok := w.(platform.Reloader); ok {
		return &reloadSpecced{specced: s, r: rl}, nil
	}
	return s, nil
}

// specced tags a built workload with the spec that produced it. It is a
// pointer so that the platform's workload identity checks (machine
// reuse, trace replay) compare it without panicking: a struct holding
// a json.RawMessage is not comparable. Besides the spec it forwards
// platform.TraceKeyer; Reloader is forwarded by reloadSpecced only
// when the built workload implements it. faults.OutputChecker is not
// forwarded (see DESIGN.md §13).
type specced struct {
	platform.Workload
	spec WorkloadSpec
}

func (s *specced) WorkloadSpec() WorkloadSpec { return s.spec }

// TraceKey forwards the built workload's platform.TraceKeyer (no key
// when it declares none).
func (s *specced) TraceKey(dst []byte, run int) ([]byte, bool) {
	if k, ok := s.Workload.(platform.TraceKeyer); ok {
		return k.TraceKey(dst, run)
	}
	return dst, false
}

// reloadSpecced is a specced whose built workload implements
// platform.Reloader.
type reloadSpecced struct {
	*specced
	r platform.Reloader
}

func (s *reloadSpecced) Reload(m *isa.Machine, run int) error { return s.r.Reload(m, run) }

// decodeParams unmarshals params over defaults; empty params keep them.
func decodeParams[T any](params json.RawMessage, defaults T) (T, error) {
	if len(params) == 0 {
		return defaults, nil
	}
	err := json.Unmarshal(params, &defaults)
	return defaults, err
}

var (
	builtinOnce sync.Once
	builtin     *Registry
)

// BuiltinRegistry returns the process-wide registry of the repository's
// workloads: the TVCA case study, the four generality kernels and the
// secret-dependent timing-leak probe.
func BuiltinRegistry() *Registry {
	builtinOnce.Do(func() {
		builtin = NewRegistry()
		builtin.Register("tvca", func(params json.RawMessage) (platform.Workload, error) {
			cfg, err := decodeParams(params, tvca.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return tvca.New(cfg)
		})
		builtin.Register("matmul", func(params json.RawMessage) (platform.Workload, error) {
			return decodeParams(params, kernels.MatMul{N: 16, Seed: 1})
		})
		builtin.Register("crc32", func(params json.RawMessage) (platform.Workload, error) {
			return decodeParams(params, kernels.CRC32{Bytes: 2048, Seed: 1})
		})
		builtin.Register("isort", func(params json.RawMessage) (platform.Workload, error) {
			return decodeParams(params, kernels.InsertionSort{N: 96, Seed: 1})
		})
		builtin.Register("vecnorm", func(params json.RawMessage) (platform.Workload, error) {
			return decodeParams(params, kernels.VecNorm{N: 64, Seed: 1})
		})
		builtin.Register("secretdep", func(params json.RawMessage) (platform.Workload, error) {
			return decodeParams(params, kernels.SecretDep{Lines: 48, Passes: 8, Seed: 1})
		})
	})
	return builtin
}

// NamedPlatform resolves the two reference platform builds. The empty
// name selects RAND (the MBPTA-compliant build).
func NamedPlatform(name string) (platform.Config, error) {
	switch name {
	case "", "RAND":
		return platform.RAND(), nil
	case "DET":
		return platform.DET(), nil
	}
	return platform.Config{}, fmt.Errorf("fabric: unknown platform %q (have RAND, DET)", name)
}
