package mbpta

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"strconv"

	"repro/internal/stats"
)

// Fingerprint returns a canonical SHA-256 digest of the report: the
// measured series, the per-batch snapshot trace, the convergence
// verdict, the fault tally, and the final per-path analysis parameters.
// Wall-clock fields (Snapshot.Elapsed) are excluded — they differ even
// between two uninterrupted executions of the same campaign. Floats are
// hashed by their IEEE-754 bit pattern, so the digest detects any
// change in any measured or derived value: two reports share a
// fingerprint exactly when they are bit-identical modulo wall clock.
// This is the invariant the durability layer is tested against — a
// campaign killed at any point and resumed from its journal must
// fingerprint identically to an uninterrupted one.
//
// Each item hashes as one '|'-separated, newline-terminated record
// whose fields read as fmt would print them: strings as %s or %q,
// integers as %d, bools as %v and float bits as %016x. An fmt-based
// reference encoder in the package tests pins that equivalence, and
// with it every committed digest.
func (r *CampaignReport) Fingerprint() string {
	e := fpEncoder{h: sha256.New()}
	e.rec("campaign").str(r.Campaign.Platform).str(r.Campaign.Workload).int(len(r.Campaign.Results)).
		str(r.Rule).bool(r.Converged).int(r.StopRuns).end()
	for i, res := range r.Campaign.Results {
		e.rec("run").int(i).uint(res.Cycles).uint(res.Instructions).
			quote(res.Path).quote(res.Outcome).int(res.Faults).end()
	}
	for _, s := range r.Snapshots {
		e.rec("snap").int(s.Batch).int(s.Runs).int(s.TotalRuns).int(s.Quarantined).int(s.BlockSize).int(s.Discarded).
			bool(s.GateChecked).bool(s.Fitted).bool(s.Done).
			bits(s.Fit.Mu).bits(s.Fit.Beta).bits(s.Delta).
			bits(s.RefProb).bits(s.PWCET).bits(s.PWCETRelDelta).end()
		if s.GateChecked {
			e.test(s.Gate.Independence)
			e.test(s.Gate.IdentDist)
			e.rec("gate").bool(s.Gate.Pass).end()
		}
		if s.QGateChecked {
			e.qgate(&s.QGate)
		}
		e.outcomes(s.Outcomes)
	}
	e.rec("faults").int(r.Faults.Total).int(r.Faults.Clean).int(r.Faults.Injected).end()
	e.outcomes(r.Faults.ByOutcome)
	// Mitigation-era fields hash only when present, so mitigation-off
	// reports keep the digests of builds that predate them.
	if len(r.Faults.Mitigated) > 0 {
		e.rec("mitigated").end()
		e.outcomes(r.Faults.Mitigated)
	}
	if r.Faults.ClampedRuns > 0 {
		e.rec("clamped").int(r.Faults.ClampedRuns).end()
	}
	if r.Analysis != nil {
		e.rec("analysis").int(r.Analysis.BlockSize).int(len(r.Analysis.Paths)).int(len(r.Analysis.SmallPaths)).end()
		for _, p := range r.Analysis.Paths {
			e.rec("path").quote(p.Path).int(p.N).str(string(p.Method)).bits(p.Fit.Mu).bits(p.Fit.Beta).
				bits(p.GEVXi).int(p.Maxima).int(p.Discarded).bool(p.Pooled).end()
			if p.QGate != nil {
				e.qgate(p.QGate)
			}
		}
		for _, sp := range r.Analysis.SmallPaths {
			e.rec("small").quote(sp.Path).int(sp.N).bits(sp.HWM).end()
		}
	}
	e.flush()
	return hex.EncodeToString(e.h.Sum(nil))
}

// fpChunk bounds the encoder's buffer: records accumulate up to here
// before one hash write, so the buffer stays small however long the
// series.
const fpChunk = 4 << 10

// fpEncoder builds fingerprint records with strconv appends into one
// reused buffer. It quotes each distinct string once: a report repeats
// a handful of path and outcome names across every run.
type fpEncoder struct {
	h      hash.Hash
	buf    []byte
	quoted map[string]string
}

// rec starts a record with its tag.
func (e *fpEncoder) rec(tag string) *fpEncoder {
	e.buf = append(e.buf, tag...)
	return e
}

func (e *fpEncoder) str(s string) *fpEncoder {
	e.buf = append(append(e.buf, '|'), s...)
	return e
}

func (e *fpEncoder) quote(s string) *fpEncoder {
	q, ok := e.quoted[s]
	if !ok {
		if e.quoted == nil {
			e.quoted = make(map[string]string)
		}
		q = strconv.Quote(s)
		e.quoted[s] = q
	}
	return e.str(q)
}

func (e *fpEncoder) int(v int) *fpEncoder {
	e.buf = strconv.AppendInt(append(e.buf, '|'), int64(v), 10)
	return e
}

func (e *fpEncoder) uint(v uint64) *fpEncoder {
	e.buf = strconv.AppendUint(append(e.buf, '|'), v, 10)
	return e
}

func (e *fpEncoder) bool(v bool) *fpEncoder {
	e.buf = strconv.AppendBool(append(e.buf, '|'), v)
	return e
}

// bits appends a float's IEEE-754 bit pattern as 16 lower-case hex
// digits. NaN payloads produced by this codebase are the single
// canonical quiet NaN, so bit-hashing is stable.
func (e *fpEncoder) bits(x float64) *fpEncoder {
	const digits = "0123456789abcdef"
	v := math.Float64bits(x)
	var b [17]byte
	b[0] = '|'
	for i := 16; i > 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	e.buf = append(e.buf, b[:]...)
	return e
}

// end terminates the record, handing the buffer to the hash once it
// reaches fpChunk.
func (e *fpEncoder) end() {
	e.buf = append(e.buf, '\n')
	if len(e.buf) >= fpChunk {
		e.flush()
	}
}

func (e *fpEncoder) flush() {
	e.h.Write(e.buf) // a hash.Hash never returns an error
	e.buf = e.buf[:0]
}

func (e *fpEncoder) test(t stats.TestResult) {
	e.rec("test").quote(t.Name).bits(t.Statistic).bits(t.PValue).bits(t.Alpha).bool(t.Rejected).int(t.DF).end()
}

func (e *fpEncoder) qgate(g *stats.QuantileGateReport) {
	e.rec("qgate").int(g.NA).int(g.NB).bits(g.Alpha).bits(g.PriorEffect).bits(g.RhoA).bits(g.RhoB).
		int(g.Leaks).bool(g.Pass).bits(g.MaxAbsZ).bits(g.LeakProbability).
		bits(g.EffectCycles).bits(g.EffectDecile).end()
	for _, d := range g.Deciles {
		e.rec("qdecile").bits(d.Q).bits(d.Diff).bits(d.SE).bits(d.Lo).bits(d.Hi).
			bits(d.Z).bits(d.P).bool(d.Leak).bits(d.BF10).bits(d.Posterior).end()
	}
}

// outcomes hashes an outcome tally in sorted key order.
func (e *fpEncoder) outcomes(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.rec("outcome").quote(k).int(m[k]).end()
	}
}
