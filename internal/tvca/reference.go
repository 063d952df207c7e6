package tvca

import (
	"math"
)

// RefResult is the host-computed golden output of one TVCA run.
type RefResult struct {
	Filtered   []float64
	OutX, OutY float64
	Clamp      int
	SatX, SatY int
}

// Reference executes the TVCA computation host-side with the exact
// operation ordering of the generated assembly, so float64 results are
// bit-identical. Tests compare it against guest execution to prove the
// code generator is functionally correct.
func (a *App) Reference(run int) (RefResult, error) {
	var md model
	a.runModel(&md, run, nil)
	return RefResult{
		Filtered: append([]float64(nil), md.filtered[:a.cfg.Sensors]...),
		OutX:     md.x.out,
		OutY:     md.y.out,
		Clamp:    md.clamp,
		SatX:     md.x.sat,
		SatY:     md.y.sat,
	}, nil
}

// TraceKey implements platform.TraceKeyer. The key is the run's
// data-dependent control decisions, in execution order, as computed by
// the control model: one byte per sensor channel per frame (keyNoClamp,
// keyClampHi or keyClampLo) and one per actuator activation (keyNoSat
// or keySat). Every other branch, and every load and store address, is
// fixed by the configuration, so two runs with equal keys retire the
// same block stream; they differ only in FP values, of which the
// timing model sees FDIV/FSQRT operands alone. The path
// classification (PathOf) is a function of the key.
func (a *App) TraceKey(dst []byte, run int) ([]byte, bool) {
	var md model
	return a.runModel(&md, run, dst[:0]), true
}

// Key bytes: a sensor channel's clamp outcome and an actuator
// activation's saturation outcome.
const (
	keyNoClamp = 0
	keyClampHi = 1
	keyClampLo = 2
	keyNoSat   = 0
	keySat     = 1
)

// model is the state of one host-side run of the TVCA control model.
// The zero value starts a run; the fixed-size arrays cover every valid
// configuration, so a run allocates nothing.
type model struct {
	hist     [maxSensors * maxTaps]float64 // FIR delay lines, channel-major
	filtered [maxSensors]float64
	clamp    int
	x, y     axisState
}

// Configuration bounds (see Config.Validate).
const (
	maxSensors = 64
	maxTaps    = 32
)

// axisState is one actuator axis's controller and plant state.
type axisState struct {
	integ, prev float64
	state       [stateDim]float64
	out         float64
	sat         int
}

// axisConsts is one actuator axis's constants, as initData writes them
// into the data segment.
type axisConsts struct {
	set, kp, ki, kd float64
	maxNorm         float64
	a               [stateDim][stateDim]float64
	b               [stateDim]float64
	sensorIx        int
	poly            bool
}

func newAxisConsts(name string, set, kp, ki, kd, maxNorm float64, sensorIx int, poly bool) axisConsts {
	ax := axisConsts{set: set, kp: kp, ki: ki, kd: kd, maxNorm: maxNorm, sensorIx: sensorIx, poly: poly}
	for i := 0; i < stateDim; i++ {
		for j := 0; j < stateDim; j++ {
			ax.a[i][j] = plantA(name, i, j)
		}
		ax.b[i] = plantB(name, i)
	}
	return ax
}

var (
	axisX = newAxisConsts("x", setpointX, kpX, kiX, kdX, maxNormX, 0, false)
	axisY = newAxisConsts("y", setpointY, kpY, kiY, kdY, maxNormY, 1, true)
)

// runModel runs the control model for run into md, the one copy of the
// TVCA computation on the host, and appends the run's key bytes (see
// TraceKey) to key. Every product is rounded before it is added
// (float64(x*y)), as the guest's separate FMUL and FADD round it, so no
// compiler may fuse the two.
func (a *App) runModel(md *model, run int, key []byte) []byte {
	in := a.inputs(run)
	for f := 0; f < a.cfg.Frames; f++ {
		for _, ti := range a.table[f] {
			switch ti {
			case 0:
				key = a.sensor(md, &in, f, key)
			case 1:
				key = md.actuate(&axisX, &md.x, key)
			case 2:
				key = md.actuate(&axisY, &md.y, key)
			}
		}
	}
	return key
}

// sensor is the sensor-acquisition task for frame f: per channel, shift
// the FIR delay line, convolve, and clamp.
func (a *App) sensor(md *model, in *inputGen, f int, key []byte) []byte {
	taps := a.cfg.Taps
	for ch := 0; ch < a.cfg.Sensors; ch++ {
		h := md.hist[ch*taps : (ch+1)*taps]
		for t := taps - 1; t >= 1; t-- {
			h[t] = h[t-1]
		}
		h[0] = in.sample(f, ch)
		acc := 0.0
		for t := 0; t < taps; t++ {
			acc += float64(h[t] * a.coef[t])
		}
		switch {
		case acc > clampLimit:
			acc = clampLimit
			md.clamp++
			key = append(key, keyClampHi)
		case acc < -clampLimit:
			acc = -clampLimit
			md.clamp++
			key = append(key, keyClampLo)
		default:
			key = append(key, keyNoClamp)
		}
		md.filtered[ch] = acc
	}
	return key
}

// actuate is one activation of an actuator-control task: PID, the
// optional linearization polynomial, the state-space update, the norm
// and the saturation rescale, and the output normalization.
func (md *model) actuate(c *axisConsts, x *axisState, key []byte) []byte {
	errv := c.set - md.filtered[c.sensorIx]
	x.integ += errv
	der := errv - x.prev
	x.prev = errv
	u := c.kp * errv
	u += float64(c.ki * x.integ)
	u += float64(c.kd * der)
	if c.poly {
		acc := polyY[4]
		for k := 3; k >= 0; k-- {
			acc = float64(acc*errv) + polyY[k]
		}
		u += acc
	}
	var newState [stateDim]float64
	for i := 0; i < stateDim; i++ {
		acc := 0.0
		for j := 0; j < stateDim; j++ {
			acc += float64(c.a[i][j] * x.state[j])
		}
		acc += float64(c.b[i] * u)
		newState[i] = acc
	}
	norm2 := 0.0
	for i := 0; i < stateDim; i++ {
		x.state[i] = newState[i]
		norm2 += float64(newState[i] * newState[i])
	}
	norm := math.Sqrt(norm2)
	if norm > c.maxNorm {
		scale := c.maxNorm / norm
		for i := 0; i < stateDim; i++ {
			x.state[i] *= scale
		}
		norm = c.maxNorm
		x.sat++
		key = append(key, keySat)
	} else {
		key = append(key, keyNoSat)
	}
	x.out = u / (1.0 + norm)
	return key
}
