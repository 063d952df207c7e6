package tvca

import (
	"fmt"

	"repro/internal/isa"
)

// Register conventions of the generated code.
const (
	rZero  = isa.Reg(0)
	rCh    = isa.Reg(1) // sensor channel loop counter
	rNS    = isa.Reg(2) // sensor count bound
	rI     = isa.Reg(3) // matrix row
	rJ     = isa.Reg(4) // matrix column
	rDim   = isa.Reg(5) // matrix bound
	rT0    = isa.Reg(6)
	rT1    = isa.Reg(7)
	rT2    = isa.Reg(8)
	rT3    = isa.Reg(9)
	rT4    = isa.Reg(10)
	rT5    = isa.Reg(11)
	rFrame = isa.Reg(27) // current minor frame
	rBase  = isa.Reg(28) // data segment base
	rLink  = isa.Reg(30) // task-call link register
)

// FP register conventions.
const (
	fSample = isa.FReg(1)
	fTmp    = isa.FReg(2)
	fAcc    = isa.FReg(3)
	fA      = isa.FReg(4)
	fB      = isa.FReg(5)
	fLim    = isa.FReg(6)
	fNegLim = isa.FReg(7)
	fPID    = isa.FReg(7) // actuator: control command u
	fInt    = isa.FReg(8)
	fErr    = isa.FReg(9)
	fDer    = isa.FReg(10)
	fNorm   = isa.FReg(11)
	fMaxN   = isa.FReg(12)
	fScale  = isa.FReg(13)
	fDen    = isa.FReg(14)
	fOut    = isa.FReg(15)
)

// generate builds the TVCA binary: the unrolled cyclic-executive
// dispatch followed by the three task bodies.
func generate(cfg Config, table [][]int) (*isa.Program, error) {
	taskLabels := []string{"task_sensor", "task_actx", "task_acty"}

	b := isa.NewBuilder("tvca", cfg.CodeBase)
	// Entry: install the data base pointer, then the dispatch table.
	b.Li(rBase, int32(cfg.DataBase))
	for f := 0; f < cfg.Frames; f++ {
		b.Li(rFrame, int32(f))
		for _, ti := range table[f] {
			b.Call(taskLabels[ti], rLink)
		}
	}
	b.Halt()

	genSensorTask(b, cfg)
	genActuatorTask(b, "actx", axisParams{
		label:    "task_actx",
		sensorIx: 0,
		offSet:   offSetX, offKp: offKpX, offKi: offKiX, offKd: offKdX,
		offInt: offIntX, offPrev: offPrevX, offOut: offOutX,
		offA: offAX, offB: offBX, offState: offXState, offNew: offXNew,
		offMaxNorm: offMaxNormX,
		offSat:     offSatX,
	})
	genActuatorTask(b, "acty", axisParams{
		label:    "task_acty",
		sensorIx: 1,
		offSet:   offSetY, offKp: offKpY, offKi: offKiY, offKd: offKdY,
		offInt: offIntY, offPrev: offPrevY, offOut: offOutY,
		offA: offAY, offB: offBY, offState: offYState, offNew: offYNew,
		offMaxNorm: offMaxNormY,
		offSat:     offSatY,
		poly:       true,
	})
	return b.Build()
}

// incInt32 emits a read-modify-write increment of the int32 at off.
func incInt32(b *isa.Builder, off int32) {
	b.Ld(rT5, rBase, off)
	b.Addi(rT5, rT5, 1)
	b.St(rBase, off, rT5)
}

// genSensorTask emits the sensor-acquisition task: per channel, shift
// the FIR delay line, accumulate the convolution, clamp out-of-range
// results (fault path) and store the filtered value. With
// cfg.UnrollChannels the per-channel body is replicated (straight-line
// autocoder style); otherwise a guest loop iterates over channels.
func genSensorTask(b *isa.Builder, cfg Config) {
	b.Label("task_sensor")
	if cfg.UnrollChannels {
		for ch := 0; ch < cfg.Sensors; ch++ {
			b.Li(rCh, int32(ch))
			genSensorChannel(b, cfg, fmt.Sprintf("sa_u%d", ch))
		}
		b.Ret(rLink)
		return
	}
	b.Li(rCh, 0)
	b.Li(rNS, int32(cfg.Sensors))
	b.Label("sa_ch")
	genSensorChannel(b, cfg, "sa")
	b.Addi(rCh, rCh, 1)
	b.Blt(rCh, rNS, "sa_ch")
	b.Ret(rLink)
}

// genSensorChannel emits one channel's body: sample fetch, delay-line
// shift, convolution, clamping and the filtered-value store. Labels are
// prefixed so unrolled instances stay unique.
func genSensorChannel(b *isa.Builder, cfg Config, prefix string) {
	lbl := func(s string) string { return prefix + "_" + s }
	// fSample = raw[frame*Sensors + ch]
	b.Li(rNS, int32(cfg.Sensors))
	b.Mul(rT0, rFrame, rNS)
	b.Add(rT0, rT0, rCh)
	b.Sll(rT0, rT0, 3)
	b.Add(rT0, rT0, rBase)
	b.Fld(fSample, rT0, offRaw)
	// rT2 = this channel's history slot (scattered; see histSlots).
	b.Sll(rT0, rCh, 2)
	b.Add(rT0, rT0, rBase)
	b.Ld(rT1, rT0, offSlotTab)
	b.Add(rT2, rT1, rBase)
	// Shift the delay line: hist[t] = hist[t-1], newest first.
	for t := cfg.Taps - 1; t >= 1; t-- {
		b.Fld(fTmp, rT2, int32(8*(t-1)))
		b.Fst(rT2, int32(8*t), fTmp)
	}
	b.Fst(rT2, 0, fSample)
	// Convolution: fAcc = sum hist[t] * coef[t].
	b.Fcvt(fAcc, rZero)
	for t := 0; t < cfg.Taps; t++ {
		b.Fld(fA, rT2, int32(8*t))
		b.Fld(fB, rBase, int32(offCoef+8*t))
		b.Fmul(fA, fA, fB)
		b.Fadd(fAcc, fAcc, fA)
	}
	// Fault handling: clamp to [-limit, limit], counting events.
	b.Fld(fLim, rBase, int32(offLimit))
	b.Fcmp(rT3, fAcc, fLim)
	b.Li(rT4, 1)
	b.Beq(rT3, rT4, lbl("clamp_hi"))
	b.Fld(fNegLim, rBase, int32(offNegLimit))
	b.Fcmp(rT3, fAcc, fNegLim)
	b.Li(rT4, -1)
	b.Beq(rT3, rT4, lbl("clamp_lo"))
	b.Jmp(lbl("store"))
	b.Label(lbl("clamp_hi"))
	b.Fmov(fAcc, fLim)
	incInt32(b, int32(offClampCnt))
	b.Jmp(lbl("store"))
	b.Label(lbl("clamp_lo"))
	b.Fld(fNegLim, rBase, int32(offNegLimit))
	b.Fmov(fAcc, fNegLim)
	incInt32(b, int32(offClampCnt))
	b.Label(lbl("store"))
	// filtered[ch] = fAcc
	b.Sll(rT0, rCh, 3)
	b.Add(rT0, rT0, rBase)
	b.Fst(rT0, int32(offFilt), fAcc)
}

// axisParams carries the per-axis offsets for the actuator generator.
type axisParams struct {
	label                        string
	sensorIx                     int
	offSet, offKp, offKi, offKd  int
	offInt, offPrev, offOut      int
	offA, offB, offState, offNew int
	offMaxNorm                   int
	offSat                       int
	poly                         bool // Y axis: extra polynomial linearization stage
}

// genActuatorTask emits one actuator-control task: PID on the filtered
// sensor, optional polynomial linearization (Horner), a 4x4 state-space
// update, FSQRT state-norm computation, FDIV saturation scaling
// (mode-dependent path) and FDIV output normalization.
func genActuatorTask(b *isa.Builder, prefix string, p axisParams) {
	lbl := func(s string) string { return prefix + "_" + s }
	b.Label(p.label)
	// fErr = setpoint - filtered[sensorIx]
	b.Fld(fA, rBase, int32(offFilt+8*p.sensorIx))
	b.Fld(fB, rBase, int32(p.offSet))
	b.Fsub(fErr, fB, fA)
	// Integral state: int += err.
	b.Fld(fInt, rBase, int32(p.offInt))
	b.Fadd(fInt, fInt, fErr)
	b.Fst(rBase, int32(p.offInt), fInt)
	// Derivative: der = err - prev; prev = err.
	b.Fld(fA, rBase, int32(p.offPrev))
	b.Fsub(fDer, fErr, fA)
	b.Fst(rBase, int32(p.offPrev), fErr)
	// fPID = kp*err + ki*int + kd*der.
	b.Fld(fA, rBase, int32(p.offKp))
	b.Fmul(fPID, fA, fErr)
	b.Fld(fA, rBase, int32(p.offKi))
	b.Fmul(fA, fA, fInt)
	b.Fadd(fPID, fPID, fA)
	b.Fld(fA, rBase, int32(p.offKd))
	b.Fmul(fA, fA, fDer)
	b.Fadd(fPID, fPID, fA)
	if p.poly {
		// Linearization: fPID += poly(err), Horner's rule.
		b.Fld(fAcc, rBase, int32(offPolyY+8*4))
		for k := 3; k >= 0; k-- {
			b.Fmul(fAcc, fAcc, fErr)
			b.Fld(fA, rBase, int32(offPolyY+8*k))
			b.Fadd(fAcc, fAcc, fA)
		}
		b.Fadd(fPID, fPID, fAcc)
	}
	// State update: new = A*state + b*u (guest loops over the 4x4).
	b.Li(rI, 0)
	b.Li(rDim, stateDim)
	b.Label(lbl("row"))
	b.Fcvt(fAcc, rZero)
	b.Li(rJ, 0)
	b.Label(lbl("col"))
	// fA = A[i][j]
	b.Sll(rT0, rI, 2)
	b.Add(rT0, rT0, rJ)
	b.Sll(rT0, rT0, 3)
	b.Add(rT0, rT0, rBase)
	b.Fld(fA, rT0, int32(p.offA))
	// fB = state[j]
	b.Sll(rT1, rJ, 3)
	b.Add(rT1, rT1, rBase)
	b.Fld(fB, rT1, int32(p.offState))
	b.Fmul(fA, fA, fB)
	b.Fadd(fAcc, fAcc, fA)
	b.Addi(rJ, rJ, 1)
	b.Blt(rJ, rDim, lbl("col"))
	// new[i] = acc + b[i]*u
	b.Sll(rT0, rI, 3)
	b.Add(rT0, rT0, rBase)
	b.Fld(fA, rT0, int32(p.offB))
	b.Fmul(fA, fA, fPID)
	b.Fadd(fAcc, fAcc, fA)
	b.Fst(rT0, int32(p.offNew), fAcc)
	b.Addi(rI, rI, 1)
	b.Blt(rI, rDim, lbl("row"))
	// Commit: state = new (unrolled), accumulating the squared norm.
	b.Fcvt(fNorm, rZero)
	for i := 0; i < stateDim; i++ {
		b.Fld(fA, rBase, int32(p.offNew+8*i))
		b.Fst(rBase, int32(p.offState+8*i), fA)
		b.Fmul(fA, fA, fA)
		b.Fadd(fNorm, fNorm, fA)
	}
	// fNorm = sqrt(sum of squares) — FSQRT, a controlled-jitter op.
	b.Fsqrt(fNorm, fNorm)
	// Saturation path: if norm > maxNorm, rescale the state by
	// maxNorm/norm (FDIV) and count the event.
	b.Fld(fMaxN, rBase, int32(p.offMaxNorm))
	b.Fcmp(rT3, fNorm, fMaxN)
	b.Li(rT4, 1)
	b.Bne(rT3, rT4, lbl("nosat"))
	b.Fdiv(fScale, fMaxN, fNorm)
	for i := 0; i < stateDim; i++ {
		b.Fld(fA, rBase, int32(p.offState+8*i))
		b.Fmul(fA, fA, fScale)
		b.Fst(rBase, int32(p.offState+8*i), fA)
	}
	b.Fmov(fNorm, fMaxN)
	incInt32(b, int32(p.offSat))
	b.Label(lbl("nosat"))
	// Output normalization: out = u / (1 + norm) — FDIV.
	b.Fld(fDen, rBase, int32(offOne))
	b.Fadd(fDen, fDen, fNorm)
	b.Fdiv(fOut, fPID, fDen)
	b.Fst(rBase, int32(p.offOut), fOut)
	b.Ret(rLink)
}

// DisassembleTask returns the generated program listing (debug aid).
func DisassembleTask(p *isa.Program) []string {
	out := make([]string, len(p.Code))
	for i, ins := range p.Code {
		out[i] = fmt.Sprintf("%#06x: %s", p.PCOf(i), ins)
	}
	return out
}
