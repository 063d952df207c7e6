// Package tvca implements the case-study workload: a Thrust Vector
// Control Application modelled on the ESA application of the paper.
// Like the original — C code auto-generated from a model of a
// closed-loop control system — the program is machine-generated
// straight-line-and-loop code with three periodic tasks under a fixed
// priority scheduler:
//
//   - sensor data acquisition (highest priority, every minor frame):
//     reads the per-frame sensor samples, FIR-filters each channel and
//     clamps out-of-range values (fault-handling path),
//   - actuator control, X axis (every 2nd frame): PID control plus a
//     4x4 state-space update, with FSQRT for the state norm and FDIV
//     for saturation scaling and output normalization,
//   - actuator control, Y axis (every 4th frame): as X with a different
//     plant and an extra polynomial linearization stage.
//
// The dispatch pattern is generated from the sched activation table and
// unrolled into the binary, mirroring a table-driven cyclic executive.
// Per-run sensor inputs come from a seeded generator, so the multi-path
// behaviour (clamping, saturation) varies across runs exactly like
// environment-driven inputs on the real system.
package tvca

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Config parametrizes the workload. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// CodeBase / DataBase place the text and data segments; experiment
	// E7 sweeps them to show memory-layout sensitivity on DET.
	CodeBase uint64
	DataBase uint64
	Frames   int // minor frames per run (major frame length)
	Sensors  int // sensor channels
	Taps     int // FIR filter taps
	// InputSeed drives per-run sensor data; the same (InputSeed, run)
	// pair yields identical inputs on every platform, enabling paired
	// DET/RAND comparisons.
	InputSeed uint64
	// ExtremeProb is the per-run probability of an extreme sensor
	// transient that exercises the clamp/saturation paths.
	ExtremeProb float64
	// UnrollChannels generates per-channel straight-line sensor code
	// instead of a channel loop, the shape aggressive autocoders emit.
	// It multiplies the text-segment size by ~the channel count, putting
	// pressure on the instruction cache (IL1 placement ablation).
	UnrollChannels bool
}

// DefaultConfig returns the reference workload: 16 minor frames, 40
// sensor channels, 32-tap FIR. The resulting data footprint (~16KB of
// demand-loaded lines: FIR histories, raw samples, coefficients, plant
// state) matches the DL1 capacity, so cache placement genuinely shapes
// execution time — as for the real application on the real platform.
func DefaultConfig() Config {
	return Config{
		CodeBase:    0x2CA40,
		DataBase:    0x13E5C0,
		Frames:      16,
		Sensors:     40,
		Taps:        32,
		InputSeed:   0x7C0FFEE,
		ExtremeProb: 0.15,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Frames < 4 || c.Frames%4 != 0 {
		return fmt.Errorf("tvca: frames %d must be a positive multiple of 4", c.Frames)
	}
	if c.Sensors < 2 || c.Sensors > maxSensors {
		return fmt.Errorf("tvca: sensors %d not in [2,%d]", c.Sensors, maxSensors)
	}
	if c.Taps < 2 || c.Taps > maxTaps {
		return fmt.Errorf("tvca: taps %d not in [2,%d]", c.Taps, maxTaps)
	}
	if c.Taps*8 > histSlotBytes {
		return fmt.Errorf("tvca: taps %d overflow a %d-byte history slot", c.Taps, histSlotBytes)
	}
	if c.Frames > offCoef/(c.Sensors*8) { // c.Frames*c.Sensors*8 > offCoef, overflow-free
		return fmt.Errorf("tvca: raw sample array (%d frames x %d sensors x 8 bytes) overflows segment (%d)",
			c.Frames, c.Sensors, offCoef)
	}
	if c.CodeBase%4 != 0 || c.DataBase%8 != 0 {
		return fmt.Errorf("tvca: misaligned bases code=%#x data=%#x", c.CodeBase, c.DataBase)
	}
	if c.DataBase > math.MaxInt32-dataSegBytes || c.CodeBase > math.MaxInt32 {
		return fmt.Errorf("tvca: bases beyond the 31-bit immediate range")
	}
	if c.ExtremeProb < 0 || c.ExtremeProb > 1 {
		return fmt.Errorf("tvca: extreme probability %v not in [0,1]", c.ExtremeProb)
	}
	return nil
}

// Data segment layout (byte offsets from DataBase). The raw sample
// array occupies [0, offCoef). The FIR delay lines are NOT contiguous:
// model-based autocoders emit one small array per signal, scattered
// across the data segment by the linker, so each channel's history
// lives in its own 256-byte slot of a 64 KiB region, at a
// per-binary-layout pseudo-random position (see histSlots). This
// scattering is what makes cache placement matter: under random-modulo
// placement each 4 KiB tag region receives an independent per-run
// rotation, so the per-set occupancy of the ~40 hot history arrays is
// genuinely random run to run.
const (
	offRaw      = 0x0000 // raw[frame][ch] float64
	offCoef     = 0x4000 // FIR coefficients [taps] float64
	offFilt     = 0x4200 // filtered[ch] float64
	offSlotTab  = 0x4400 // int32 per-channel history-slot offsets
	offConsts   = 0x4600 // scalar constants block
	offLimit    = offConsts + 0x00
	offNegLimit = offConsts + 0x08
	offOne      = offConsts + 0x10
	// X-axis controller block.
	offSetX  = offConsts + 0x20
	offKpX   = offConsts + 0x28
	offKiX   = offConsts + 0x30
	offKdX   = offConsts + 0x38
	offIntX  = offConsts + 0x40
	offPrevX = offConsts + 0x48
	offOutX  = offConsts + 0x50
	// Y-axis controller block.
	offSetY  = offConsts + 0x60
	offKpY   = offConsts + 0x68
	offKiY   = offConsts + 0x70
	offKdY   = offConsts + 0x78
	offIntY  = offConsts + 0x80
	offPrevY = offConsts + 0x88
	offOutY  = offConsts + 0x90
	// Per-axis saturation limits.
	offMaxNormX = offConsts + 0x98
	offMaxNormY = offConsts + 0xA8
	offPolyY    = offConsts + 0xB0 // 5 coefficients
	// Plant matrices and state.
	offAX     = 0x4800 // 4x4
	offBX     = 0x4880 // 4
	offXState = 0x48A0 // 4
	offXNew   = 0x48C0 // 4
	offAY     = 0x4900
	offBY     = 0x4980
	offYState = 0x49A0
	offYNew   = 0x49C0
	// Path flags (int32).
	offClampCnt = 0x4A00
	offSatX     = 0x4A04
	offSatY     = 0x4A08
	// Scattered FIR history region: 256 slots of 256 bytes.
	offHistRegion = 0x10000
	histSlotBytes = 0x100
	histSlotCount = 256
	dataSegBytes  = offHistRegion + histSlotCount*histSlotBytes
)

// histSlots returns the per-channel slot assignment: a pseudo-random
// injective map channel -> slot derived from the binary's link bases,
// standing in for the linker's placement of the autocoded arrays. The
// map is a property of the binary (fixed across runs), and different
// link layouts (experiment E7) shuffle it differently.
func histSlots(cfg Config) []int32 {
	src := rng.NewXoroshiro128(cfg.CodeBase*0x9E3779B9 ^ cfg.DataBase)
	perm := make([]int, histSlotCount)
	for i := range perm {
		perm[i] = i
	}
	for i := histSlotCount - 1; i > 0; i-- {
		j := rng.Intn(src, i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := make([]int32, cfg.Sensors)
	for ch := range out {
		out[ch] = int32(offHistRegion + perm[ch]*histSlotBytes)
	}
	return out
}

// stateDim is the plant state dimension (4x4 state-space model).
const stateDim = 4

// Controller constants (written into the data segment at Prepare).
// They are scaled to the filtered-signal range of the reference inputs
// so the fault paths trigger on a realistic fraction of runs: transient
// spikes push the FIR output past clampLimit, and input-dependent
// controller activity pushes the plant-state norm past maxNorm.
const (
	clampLimit    = 0.30
	maxNormX      = 0.155
	maxNormY      = 0.176
	setpointX     = 0.05
	setpointY     = -0.04
	kpX, kiX, kdX = 0.8, 0.2, 0.1
	kpY, kiY, kdY = 0.7, 0.15, 0.12
)

// firCoef returns tap t of the low-pass FIR used by the sensor task
// (normalized raised-cosine window).
func firCoef(t, taps int) float64 {
	w := 0.5 - 0.5*math.Cos(2*math.Pi*float64(t)/float64(taps-1))
	return w / float64(taps)
}

// plantA returns element (i,j) of the axis plant matrix: a stable
// system with mild cross-coupling, slightly different per axis.
func plantA(axis string, i, j int) float64 {
	if i == j {
		if axis == "x" {
			return 0.90
		}
		return 0.88
	}
	d := float64(i - j)
	if axis == "x" {
		return 0.05 / (1 + d*d)
	}
	return 0.04 / (1 + d*d)
}

// plantB returns element i of the axis input vector.
func plantB(axis string, i int) float64 {
	base := []float64{0.5, 0.3, 0.2, 0.1}
	if axis == "y" {
		return base[i] * 0.9
	}
	return base[i]
}

// polyY holds the Y-axis linearization polynomial coefficients
// (evaluated by Horner's rule in guest code): c0 + c1 e + ... + c4 e^4.
var polyY = [5]float64{0.0, 0.05, -0.02, 0.008, -0.001}

// Tasks returns the case study's periodic task set, for use with the
// sched package (periods in minor frames; priorities: sensor highest).
func Tasks() []sched.Task {
	return []sched.Task{
		{Name: "sensor-acq", Period: 1, Priority: 0},
		{Name: "actuator-x", Period: 2, Priority: 1},
		{Name: "actuator-y", Period: 4, Priority: 2},
	}
}

// App is the built workload: the generated program plus the input
// synthesizer and the host-side control model (reference.go). It
// implements platform.Workload, platform.Reloader and
// platform.TraceKeyer. App is safe for concurrent use by multiple
// campaign workers: Prepare only reads the immutable program and writes
// a fresh Memory, and the control model keeps its state on the stack.
type App struct {
	cfg   Config
	prog  *isa.Program
	slots []int32   // per-channel history-slot offsets (fixed per binary)
	table [][]int   // task activations per minor frame (sched.ActivationTable)
	coef  []float64 // FIR coefficients
}

// New validates cfg and generates the TVCA program.
func New(cfg Config) (*App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	table, err := sched.ActivationTable(Tasks(), cfg.Frames)
	if err != nil {
		return nil, err
	}
	prog, err := generate(cfg, table)
	if err != nil {
		return nil, err
	}
	coef := make([]float64, cfg.Taps)
	for t := range coef {
		coef[t] = firCoef(t, cfg.Taps)
	}
	return &App{cfg: cfg, prog: prog, slots: histSlots(cfg), table: table, coef: coef}, nil
}

// Name identifies the workload in campaign results.
func (a *App) Name() string { return "TVCA" }

// Config returns the workload configuration.
func (a *App) Config() Config { return a.cfg }

// Program exposes the generated binary (inspection/tests).
func (a *App) Program() *isa.Program { return a.prog }

// Prepare implements the "reload the executable" protocol step: a fresh
// machine with re-initialized data segments and the run-specific input
// vector.
func (a *App) Prepare(run int) (*isa.Machine, error) {
	m := isa.NewMemory()
	if err := a.initData(m); err != nil {
		return nil, err
	}
	if err := a.writeInputs(m, run); err != nil {
		return nil, err
	}
	return isa.NewMachine(a.prog, m), nil
}

// Reload implements platform.Reloader: it re-initializes a machine
// previously returned by Prepare in place (registers cleared, memory
// zeroed page-wise, data segments rewritten) so the steady-state
// campaign loop reuses the platform-owned machine without allocating.
// The observable machine state is identical to a fresh Prepare.
func (a *App) Reload(m *isa.Machine, run int) error {
	m.Reset()
	m.Mem.Reset()
	if err := a.initData(m.Mem); err != nil {
		return err
	}
	return a.writeInputs(m.Mem, run)
}

// scalarConsts lists the controller constants and their data-segment
// offsets. A fixed table (not a map) so initData writes in a fixed order
// with no per-call allocation; the final memory image is identical
// either way since the offsets are distinct.
var scalarConsts = [...]struct {
	off int
	v   float64
}{
	{offLimit, clampLimit}, {offNegLimit, -clampLimit},
	{offOne, 1.0}, {offMaxNormX, maxNormX}, {offMaxNormY, maxNormY},
	{offSetX, setpointX}, {offKpX, kpX}, {offKiX, kiX}, {offKdX, kdX},
	{offSetY, setpointY}, {offKpY, kpY}, {offKiY, kiY}, {offKdY, kdY},
}

// initData writes the constant segments (coefficients, gains, plant).
func (a *App) initData(m *isa.Memory) error {
	d := a.cfg.DataBase
	w := func(off int, v float64) error { return m.Write64(d+uint64(off), v) }
	for t, c := range a.coef {
		if err := w(offCoef+8*t, c); err != nil {
			return err
		}
	}
	for _, c := range scalarConsts {
		if err := w(c.off, c.v); err != nil {
			return err
		}
	}
	for i, c := range polyY {
		if err := w(offPolyY+8*i, c); err != nil {
			return err
		}
	}
	for ch, slot := range a.slots {
		if err := m.Write32(d+uint64(offSlotTab+4*ch), uint32(slot)); err != nil {
			return err
		}
	}
	for i := 0; i < stateDim; i++ {
		for j := 0; j < stateDim; j++ {
			if err := w(offAX+8*(i*stateDim+j), plantA("x", i, j)); err != nil {
				return err
			}
			if err := w(offAY+8*(i*stateDim+j), plantA("y", i, j)); err != nil {
				return err
			}
		}
		if err := w(offBX+8*i, plantB("x", i)); err != nil {
			return err
		}
		if err := w(offBY+8*i, plantB("y", i)); err != nil {
			return err
		}
	}
	return nil
}

// Inputs synthesizes the run-specific sensor samples: band-limited
// oscillation plus noise, with occasional extreme transients that drive
// the clamp and saturation paths. Inputs depend only on (InputSeed,
// run), never on the platform, enabling paired DET/RAND comparisons.
func (a *App) Inputs(run int) [][]float64 {
	in := a.inputs(run)
	out := make([][]float64, a.cfg.Frames)
	for f := range out {
		out[f] = make([]float64, a.cfg.Sensors)
		for ch := range out[f] {
			out[f][ch] = in.sample(f, ch)
		}
	}
	return out
}

// writeInputs stores the run's sensor samples into the data segment,
// drawn in place (the steady-state run loop must not allocate).
func (a *App) writeInputs(m *isa.Memory, run int) error {
	in := a.inputs(run)
	for f := 0; f < a.cfg.Frames; f++ {
		for ch := 0; ch < a.cfg.Sensors; ch++ {
			addr := a.cfg.DataBase + uint64(offRaw+8*(f*a.cfg.Sensors+ch))
			if err := m.Write64(addr, in.sample(f, ch)); err != nil {
				return err
			}
		}
	}
	return nil
}

// inputGen draws one run's sensor samples. It is the one copy of the
// input synthesis: Inputs, writeInputs and the control model all draw
// through it, in (frame, channel) order.
type inputGen struct {
	src          rng.Xoroshiro128
	frames       int
	sensors      int
	extreme      bool
	extremeFrame int
	extremeCh    int
}

// inputs starts run's input generator.
func (a *App) inputs(run int) inputGen {
	in := inputGen{frames: a.cfg.Frames, sensors: a.cfg.Sensors}
	in.src.Seed(inputSeed(a.cfg.InputSeed, run))
	in.extreme = in.src.Float64() < a.cfg.ExtremeProb
	in.extremeFrame = in.src.Intn(a.cfg.Frames)
	in.extremeCh = in.src.Intn(a.cfg.Sensors)
	return in
}

// sample draws the sample of frame f, channel ch; samples must be drawn
// in (frame, channel) order.
func (in *inputGen) sample(f, ch int) float64 {
	phase := 2 * math.Pi * (float64(f)/float64(in.frames) + float64(ch)/float64(in.sensors))
	v := 1.2*math.Sin(phase) + 0.4*(in.src.Float64()-0.5)
	if in.extreme && f == in.extremeFrame && ch == in.extremeCh {
		v *= 40 // transient spike
	}
	return v
}

// inputSeed mixes the workload input seed with the run index.
func inputSeed(base uint64, run int) uint64 {
	z := base ^ (0x9E3779B97F4A7C15 * uint64(run+0x5D))
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	return z ^ (z >> 31)
}

// PathOf classifies the executed control-flow path from the fault and
// saturation counters the program leaves in memory. The classification
// (clamp occurred / X saturated / Y saturated) yields up to 8 paths;
// the paper's per-path analysis takes the maximum of the per-path
// pWCETs.
func (a *App) PathOf(m *isa.Machine) string {
	flag := func(off int) int {
		v, err := m.Mem.Read32(a.cfg.DataBase + uint64(off))
		if err != nil || v == 0 {
			return 0
		}
		return 1
	}
	return pathNames[flag(offClampCnt)<<2|flag(offSatX)<<1|flag(offSatY)]
}

// pathNames interns the 8 possible path strings (index bits:
// clamp<<2 | satX<<1 | satY) so path classification never allocates.
var pathNames = [8]string{
	"clamp0-satx0-saty0", "clamp0-satx0-saty1",
	"clamp0-satx1-saty0", "clamp0-satx1-saty1",
	"clamp1-satx0-saty0", "clamp1-satx0-saty1",
	"clamp1-satx1-saty0", "clamp1-satx1-saty1",
}

// Counters returns the raw path counters after a run (tests/debug).
func (a *App) Counters(m *isa.Machine) (clamp, satX, satY uint32) {
	r := func(off int) uint32 {
		v, _ := m.Mem.Read32(a.cfg.DataBase + uint64(off))
		return v
	}
	return r(offClampCnt), r(offSatX), r(offSatY)
}

// Filtered returns the filtered sensor vector after a run (tests).
func (a *App) Filtered(m *isa.Machine) []float64 {
	out := make([]float64, a.cfg.Sensors)
	for ch := range out {
		out[ch], _ = m.Mem.Read64(a.cfg.DataBase + uint64(offFilt+8*ch))
	}
	return out
}

// Outputs returns the actuator commands after a run (tests).
func (a *App) Outputs(m *isa.Machine) (x, y float64) {
	x, _ = m.Mem.Read64(a.cfg.DataBase + uint64(offOutX))
	y, _ = m.Mem.Read64(a.cfg.DataBase + uint64(offOutY))
	return x, y
}

// CheckOutput compares the machine's architectural outputs after run
// against the host-computed golden reference. Guest and reference share
// operation ordering, so comparisons are bit-exact. It satisfies the
// fault-injection layer's OutputChecker, letting injected campaigns
// separate wrong-output corruption from purely timing upsets.
func (a *App) CheckOutput(m *isa.Machine, run int) error {
	ref, err := a.Reference(run)
	if err != nil {
		return err
	}
	neq := func(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }
	x, y := a.Outputs(m)
	if neq(x, ref.OutX) || neq(y, ref.OutY) {
		return fmt.Errorf("tvca run %d: actuator outputs (%g, %g) != reference (%g, %g)",
			run, x, y, ref.OutX, ref.OutY)
	}
	clamp, satX, satY := a.Counters(m)
	if int(clamp) != ref.Clamp || int(satX) != ref.SatX || int(satY) != ref.SatY {
		return fmt.Errorf("tvca run %d: counters (clamp=%d satx=%d saty=%d) != reference (%d %d %d)",
			run, clamp, satX, satY, ref.Clamp, ref.SatX, ref.SatY)
	}
	for ch, v := range a.Filtered(m) {
		if neq(v, ref.Filtered[ch]) {
			return fmt.Errorf("tvca run %d: filtered[%d] = %g != reference %g",
				run, ch, v, ref.Filtered[ch])
		}
	}
	return nil
}

// TaskSpans exposes the PC ranges of the three task bodies, enabling
// per-job execution-time attribution (platform.RunPerTask). The
// generator emits the dispatcher first, then the tasks in fixed order,
// so each task's span runs from its entry label to the next one.
func (a *App) TaskSpans() []isa.Span {
	syms := []string{"task_sensor", "task_actx", "task_acty"}
	taskNames := []string{"sensor-acq", "actuator-x", "actuator-y"}
	out := make([]isa.Span, len(syms))
	for i, sym := range syms {
		start, ok := a.prog.SymbolPC(sym)
		if !ok {
			panic("tvca: generated program lacks symbol " + sym)
		}
		var end uint64
		if i+1 < len(syms) {
			end, _ = a.prog.SymbolPC(syms[i+1])
		} else {
			end = a.prog.PCOf(a.prog.Len())
		}
		out[i] = isa.Span{Name: taskNames[i], Start: start, End: end}
	}
	return out
}
