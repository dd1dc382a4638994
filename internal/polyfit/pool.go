package polyfit

import (
	"fmt"
	"slices"

	"tpsta/internal/num"
)

// Pool is a flat, struct-of-arrays compilation of many fitted models,
// each evaluated at fixed values of its trailing variables into a
// kernel over its first two: an STA run fixes temperature and supply
// for its whole duration, so the 4-variable (Fo, Tin, T, VDD) arc
// models collapse to (Fo, Tin) kernels evaluated millions of times at
// one operating point. The pool holds one table-wide term array and
// per-kernel normalization and fixed-variable powers, addressed by the
// dense integer ID Add returns. The layout removes every per-kernel
// pointer chase from the query path — a batch of evaluations touches a
// few contiguous arrays — and is what the batched arc-delay evaluator
// of internal/core rides on.
//
// Evaluation is bit-identical to Model.Eval with the fixed variables
// at their Add-time values. IEEE-754 addition and multiplication are
// order-sensitive, so compilation performs no reassociation: terms keep
// the coefficient order of Model.Eval and each term multiplies its
// factors in variable order, the normalization and clamp are the same
// arithmetic and the power tables use the same recurrence. Only the
// fixed variables' power tables are built ahead of time, once per
// kernel. The batched entry points (PowLane, SumBatch) only change
// *which* kernel is evaluated when, never the factor or summation order
// within one evaluation.
//
// A Pool is immutable once its owner stops calling Add and is then
// safe for concurrent evaluation from any number of goroutines (each
// caller brings its own scratch).
type Pool struct {
	// Per kernel k, two entries each (variable 0 then variable 1): the
	// free variables' normalization and orders, and the fixed
	// variables' normalization and orders (an absent second fixed
	// variable has lo, scale and order 0).
	lo, scale       []float64 // free: xn = (x - lo) · scale
	ord             []uint16
	fixLo, fixScale []float64 // fixed, likewise
	fixOrd          []uint16

	termOff []uint32   // per kernel: term range [termOff[k], termOff[k+1])
	terms   []poolTerm // table-wide fixed-shape monomials
	// fixPow holds each kernel's fixed power block: kernel k's is
	// fixPow[k·laneLen:(k+1)·laneLen], laid out like a lane's power
	// block — the first fixed variable's powers from 0, the second's
	// from powStride. The blocks are the only part of a pool that
	// depends on the fixed values (RespecBatch).
	fixPow []float64
	fixed  []string // the fixed variables' names in model order, the same for every kernel

	nops int // factor count as added (identity factors excluded), for stats

	// sealed marks a pool produced by RespecBatch: every array but
	// fixPow is shared by reference with the base pool, so growing it
	// would corrupt both. Add rejects sealed pools.
	sealed bool
}

// poolTerm is one pooled monomial in the fixed factor shape every
// kernel has,
//
//	coef · pw[idx0] · pw[idx1] · c0 · c1,
//
// the powers of the two free variables from the lane's power block pw,
// then the powers c0 and c1 of the at most two fixed variables from
// the kernel's fixed power block, multiplied in exactly that order —
// Model.Eval's variable order, since the free pair leads. A zero
// exponent addresses a table's entry 0, an exact 1.0, and multiplying
// by an exact 1.0 is an IEEE-754 identity, just as in Model.Eval, so
// the fixed shape evaluates bit-identically while freeing the term
// loop of every branch.
type poolTerm struct {
	coef       float64
	idx0, idx1 uint8 // free powers: flat index in the lane's block, variable·powStride + exponent
	f0, f1     uint8 // c0 and c1: flat index in the kernel's fixed block, likewise
}

// BatchWidth is the nominal lane count of one batched round: callers
// size scratch in it and count batch occupancy (lanes per round) in
// units of it.
const BatchWidth = 8

// powStride is the fixed distance between the two power tables of one
// lane's power block, and laneLen the block's total length. Fixing the
// stride at compile time (rather than deriving it from the pool's
// largest order) lets Add precompile each factor's flat block index
// and keeps every lane a constant-size array the term loop indexes
// with a single load. Orders above powStride-1 are rejected by Add;
// the fitter's hard ceiling (evalMaxOrder) is half of that.
const (
	powStride = 16
	laneLen   = 2 * powStride
)

// NewPool returns an empty kernel pool.
func NewPool() *Pool {
	return &Pool{termOff: []uint32{0}}
}

// Add compiles model m, its trailing variables fixed at the values
// fixed names, into the pool and returns the kernel's dense ID. The
// model must lead with exactly two free variables — the pool's lane
// layout is fixed at the (Fo, Tin) shape of an arc model — followed by
// at most two fixed ones, the same names for every kernel of the pool.
// A fixed value outside the characterized range evaluates at the
// border, like any Model.Eval query.
//
// stalint:coldpath one compilation per distinct kernel at table-build
// time, amortized over every subsequent batched query
func (p *Pool) Add(m *Model, fixed map[string]float64) (int32, error) {
	if p.sealed {
		return -1, fmt.Errorf("polyfit: Pool.Add on a RespecBatch pool (its geometry arrays are shared with the base pool)")
	}
	k := len(m.Vars)
	shapeOK := k >= 2 && k <= 4 && len(fixed) == k-2
	for i := 2; shapeOK && i < k; i++ {
		_, shapeOK = fixed[m.Vars[i]]
	}
	if !shapeOK {
		return -1, fmt.Errorf("polyfit: Pool.Add: model over %v with %v fixed: want two free variables followed by at most two fixed ones", m.Vars, fixed)
	}
	for _, o := range m.Orders {
		if o >= powStride {
			return -1, fmt.Errorf("polyfit: Pool.Add: order %d exceeds the pool lane layout (max %d)", o, powStride-1)
		}
	}
	if p.NumKernels() == 0 {
		p.fixed = slices.Clone(m.Vars[2:])
	} else if !slices.Equal(p.fixed, m.Vars[2:]) {
		return -1, fmt.Errorf("polyfit: Pool.Add: model fixes %v, the pool fixes %v", m.Vars[2:], p.fixed)
	}
	id := int32(p.NumKernels())
	p.lo = append(p.lo, m.Lo[0], m.Lo[1])
	p.scale = append(p.scale, m.Scale[0], m.Scale[1])
	p.ord = append(p.ord, uint16(m.Orders[0]), uint16(m.Orders[1]))
	var lo, scale, at [2]float64
	var ord [2]uint16
	for i, name := range m.Vars[2:] {
		lo[i], scale[i], ord[i], at[i] = m.Lo[2+i], m.Scale[2+i], uint16(m.Orders[2+i]), fixed[name]
	}
	p.fixLo = append(p.fixLo, lo[:]...)
	p.fixScale = append(p.fixScale, scale[:]...)
	p.fixOrd = append(p.fixOrd, ord[:]...)
	p.fixPow = append(p.fixPow, make([]float64, laneLen)...)
	p.fixedPows(id, at)
	// Walk the coefficients in Model.Eval's mixed-radix order, keeping
	// every monomial Eval would not skip.
	var exps [4]int
	for _, coef := range m.Coef {
		if !num.IsZero(coef) {
			p.terms = append(p.terms, poolTerm{coef: coef,
				idx0: uint8(exps[0]), idx1: uint8(powStride + exps[1]),
				f0: uint8(exps[2]), f1: uint8(powStride + exps[3])})
			for _, e := range exps {
				if e > 0 {
					p.nops++
				}
			}
		}
		for i := 0; i < k; i++ {
			exps[i]++
			if exps[i] <= m.Orders[i] {
				break
			}
			exps[i] = 0
		}
	}
	p.termOff = append(p.termOff, uint32(len(p.terms)))
	return id, nil
}

// fixedPows fills kernel k's fixed power block at the values at: each
// fixed variable normalized and clamped to the characterized range and
// raised by the recurrence Model.Eval uses, so every entry is the
// factor Eval multiplies by. An absent variable (order 0) yields its
// entry 0 alone, 1.
func (p *Pool) fixedPows(k int32, at [2]float64) {
	fw := p.fixPow[laneLen*int(k):]
	for i := int32(0); i < 2; i++ {
		xn := (at[i] - p.fixLo[2*k+i]) * p.fixScale[2*k+i]
		if xn < 0 {
			xn = 0
		} else if xn > 1 {
			xn = 1
		}
		t := fw[powStride*i:]
		t[0] = 1
		for e := 1; e <= int(p.fixOrd[2*k+i]); e++ {
			t[e] = t[e-1] * xn
		}
	}
}

// RespecBatch re-folds every pooled kernel at new values of the fixed
// variables in one pass; fixed must hold a value for each of the
// pool's fixed variables. A kernel's surviving terms, their factor
// indices and its normalization depend on the model alone, not on the
// fixed values, so the returned pool shares all of them with the
// receiver and carries only fresh fixed-variable power tables,
// recomputed from each kernel's fixed normalization and orders. It
// evaluates bit-identically to a pool built by Add from the same
// models at the new values. The result is sealed: Add on it is
// rejected, and like any pool it is read-only once returned.
//
// stalint:coldpath one re-fold per additional operating point at
// table-build time, amortized over every subsequent batched query
func (p *Pool) RespecBatch(fixed map[string]float64) (*Pool, error) {
	var at [2]float64
	for i, name := range p.fixed {
		v, ok := fixed[name]
		if !ok {
			return nil, fmt.Errorf("polyfit: Pool.RespecBatch: no value for %q (the pool fixes %v)", name, p.fixed)
		}
		at[i] = v
	}
	np := *p
	np.fixPow = make([]float64, len(p.fixPow))
	np.sealed = true
	for k := int32(0); k < int32(p.NumKernels()); k++ {
		np.fixedPows(k, at)
	}
	return &np, nil
}

// NumKernels returns the number of compiled kernels.
func (p *Pool) NumKernels() int { return len(p.ord) / 2 }

// NumTerms returns the pooled monomial count across all kernels.
func (p *Pool) NumTerms() int { return len(p.terms) }

// NumOps returns the pooled factor count across all kernels
// (identity factors of the fixed term shape excluded).
func (p *Pool) NumOps() int { return p.nops }

// ScratchLen returns the length the pow scratch passed to EvalOne
// must have: BatchWidth lanes of two fixed-stride power tables each.
// Callers size it once and reuse it query to query.
func (p *Pool) ScratchLen() int { return BatchWidth * laneLen }

// LaneLen returns the length of one lane's power block: two power
// tables at the pool's fixed stride.
func (p *Pool) LaneLen() int { return laneLen }

// NormShared reports whether kernels a and b share bit-identical
// normalization (lo, scale). Same-normalized kernels clamp and
// normalize any evaluation point identically, and the power recurrence
// pw[e] = pw[e-1]·xn yields the same prefix regardless of how far it
// runs — so one block built to the pairwise maximum orders
// (PowLanePair) serves both bit-identically. The delay/slew kernel
// pair of one timing arc, fitted over the same characterization grid,
// always qualifies; only their auto-fitted orders differ.
func (p *Pool) NormShared(a, b int32) bool {
	// Interchangeable power blocks need the exact build-time values.
	// stalint:ignore floatcmp bit-identical normalization is the sharing contract
	return p.lo[2*a] == p.lo[2*b] && p.lo[2*a+1] == p.lo[2*b+1] &&
		p.scale[2*a] == p.scale[2*b] && p.scale[2*a+1] == p.scale[2*b+1] // stalint:ignore floatcmp bit-identical normalization is the sharing contract
}

// PowLane builds kernel k's normalized, clamped power block for
// (x0, x1) into pw (length at least LaneLen) — the per-lane setup of a
// batched evaluation, split out so callers can retain the block across
// the two evaluation passes.
//
// stalint:noalloc per-lane setup of the batched query path
func (p *Pool) PowLane(k int32, x0, x1 float64, pw []float64) {
	p.powLane(k, int(p.ord[2*k]), int(p.ord[2*k+1]), x0, x1, pw)
}

// PowLanePair builds one power block for (x0, x1) serving both a and
// b, which must share normalization (NormShared): kernel a's clamp
// with the power tables run to the pairwise maximum order, so SumLane
// of either kernel reads exactly the powers its own PowLane would have
// built.
//
// stalint:noalloc per-lane setup of the batched query path
func (p *Pool) PowLanePair(a, b int32, x0, x1 float64, pw []float64) {
	o0, o1 := int(p.ord[2*a]), int(p.ord[2*a+1])
	if o := int(p.ord[2*b]); o > o0 {
		o0 = o
	}
	if o := int(p.ord[2*b+1]); o > o1 {
		o1 = o
	}
	p.powLane(a, o0, o1, x0, x1, pw)
}

// SumLane evaluates kernel k against a power block previously built by
// PowLane/PowLanePair for k or a norm-sharing kernel (NormShared) at
// the desired point: coefficient times factors in original order,
// summed in original order — bit-identical to Model.Eval's
// accumulation (absent factors are exact 1.0 identities, see
// poolTerm). The masks just prove each index < laneLen to the
// compiler; all hold by construction. The float64 conversion pins the
// term's rounding per the Go spec, so no fused multiply-add can leak
// into the accumulation on platforms that have one.
//
// stalint:noalloc per-lane term loop of the batched query path
func (p *Pool) SumLane(k int32, pw []float64) float64 {
	lw, fw := (*[laneLen]float64)(pw), (*[laneLen]float64)(p.fixPow[laneLen*int(k):])
	ts := p.terms[p.termOff[k]:p.termOff[k+1]]
	total := 0.0
	for i := range ts {
		t := &ts[i]
		total += float64(t.coef * lw[t.idx0&(laneLen-1)] * lw[t.idx1&(laneLen-1)] * fw[t.f0&(laneLen-1)] * fw[t.f1&(laneLen-1)])
	}
	return total
}

// SumBatch evaluates kernel ids[i] against the i-th LaneLen-sized
// power block of pow into out[i] — the second pass of a two-pass
// batched evaluation whose first pass built every lane's block with
// PowLane. One tight loop over the pooled arrays: no setup, no
// normalization, no per-kernel pointer chasing between lanes.
//
// stalint:noalloc the batched summation is the hot loop of every
// path-scoring query; it must never allocate
func (p *Pool) SumBatch(ids []int32, pow, out []float64) {
	for i, k := range ids {
		out[i] = p.SumLane(k, pow[i*laneLen:])
	}
}

// powLane is the shared lane setup: kernel k's normalization and
// clamp, power tables run to the requested orders (variable 0 at
// pw[0:], variable 1 at pw[powStride:]) — the same arithmetic, in the
// same order, as Model.Eval's per-variable setup.
func (p *Pool) powLane(k int32, o0, o1 int, x0, x1 float64, pw []float64) {
	xn := (x0 - p.lo[2*k]) * p.scale[2*k]
	if xn < 0 {
		xn = 0
	} else if xn > 1 {
		xn = 1
	}
	pw[0] = 1
	for e := 1; e <= o0; e++ {
		pw[e] = pw[e-1] * xn
	}
	xn = (x1 - p.lo[2*k+1]) * p.scale[2*k+1]
	if xn < 0 {
		xn = 0
	} else if xn > 1 {
		xn = 1
	}
	pw[powStride] = 1
	for e := 1; e <= o1; e++ {
		pw[powStride+e] = pw[powStride+e-1] * xn
	}
}

// EvalOne evaluates kernel k at (x0, x1) using lane 0 of pow (length
// at least ScratchLen()). It is the scalar entry point for inherently
// sequential chains — the slew recurrence of a timing path — and is
// bit-identical to Model.Eval on the added model.
//
// stalint:noalloc the query path must stay allocation-free; the caller
// owns and reuses the scratch
func (p *Pool) EvalOne(k int32, x0, x1 float64, pow []float64) float64 {
	p.PowLane(k, x0, x1, pow)
	return p.SumLane(k, pow)
}
