package polyfit

import "fmt"

// Pool is a flat, struct-of-arrays compilation of many 2-variable
// specialized kernels (see Specialize): one table-wide coefficient
// array, one factor-op array and per-kernel (lo, scale, order)
// normalization, addressed by the dense integer ID Add returns. The
// layout removes every per-kernel pointer chase from the query path —
// a batch of evaluations touches four contiguous arrays instead of a
// forest of *Specialized headers — and is what the batched arc-delay
// evaluator of internal/core rides on.
//
// Evaluation is bit-identical to Specialized.Eval on the kernel that
// was added: compilation copies the coefficient order and the
// per-monomial factor order verbatim, the normalization/clamp is the
// same arithmetic, and the power tables use the same recurrence. The
// batched entry points (PowLane, SumBatch) only change *which* kernel
// is evaluated when, never the factor or summation order within one
// evaluation.
//
// A Pool is immutable once its owner stops calling Add and is then
// safe for concurrent evaluation from any number of goroutines (each
// caller brings its own scratch).
type Pool struct {
	// Per kernel k (two entries each, variable 0 then variable 1):
	lo    []float64 // normalization offset, lo[2k] / lo[2k+1]
	scale []float64 // normalization scale
	ord   []uint16  // per-variable polynomial order

	termOff []uint32   // per kernel: term range [termOff[k], termOff[k+1])
	terms   []poolTerm // table-wide fixed-shape monomials

	maxOrd int // largest per-variable order across the pool
	nops   int // factor count as added (identity factors excluded), for stats

	// sealed marks a pool produced by RespecBatch: its normalization,
	// order and term-offset arrays are shared by reference with the base
	// pool, so growing it would corrupt both. Add rejects sealed pools.
	sealed bool
}

// poolTerm is one pooled monomial, precompiled to the fixed factor
// shape every run-specialized kernel has: at most one power of each
// free variable followed by at most two fixed-variable constants,
// multiplied in exactly that order (Model.Eval walks the variables in
// declaration order, and the STA models put the free pair first).
// Absent factors compile to exact identities — idx 0 addresses the
// power block's constant 1.0, c0/c1 default to 1.0 — and multiplying
// by an exact 1.0 is bit-exact under IEEE-754, so the fixed shape
// evaluates bit-identically to the variable-length factor walk while
// freeing the term loop of every branch and indirection.
type poolTerm struct {
	coef, c0, c1 float64
	idx0, idx1   uint16 // flat power-block index: variable·powStride + exponent
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

// Add compiles one 2-variable specialized kernel into the pool and
// returns its dense ID. Kernels with any other free-variable count are
// rejected — the pool's lane layout is fixed at two variables, the
// (Fo, Tin) shape every run-specialized delay kernel has.
//
// stalint:coldpath one compilation per distinct kernel at table-build
// time, amortized over every subsequent batched query
func (p *Pool) Add(s *Specialized) (int32, error) {
	if p.sealed {
		return -1, fmt.Errorf("polyfit: Pool.Add on a RespecBatch pool (its geometry arrays are shared with the base pool)")
	}
	if len(s.vars) != 2 {
		return -1, fmt.Errorf("polyfit: Pool.Add: kernel has %d free variables, want 2 (%v)", len(s.vars), s.vars)
	}
	for _, o := range s.orders {
		if o >= powStride {
			return -1, fmt.Errorf("polyfit: Pool.Add: order %d exceeds the pool lane layout (max %d)", o, powStride-1)
		}
	}
	// Validate every term against the fixed factor shape before any
	// mutation, so a rejected kernel leaves the pool untouched.
	for ti := range s.terms {
		t := &s.terms[ti]
		lastFree, nc := int16(-1), 0
		for _, op := range s.ops[t.lo:t.hi] {
			if op.free >= 0 {
				if nc > 0 || op.free <= lastFree {
					return -1, fmt.Errorf("polyfit: Pool.Add: term factor order outside the pooled (free0, free1, const, const) shape")
				}
				lastFree = op.free
			} else if nc++; nc > 2 {
				return -1, fmt.Errorf("polyfit: Pool.Add: term has more than two fixed-variable factors")
			}
		}
	}
	id := int32(len(p.ord) / 2)
	p.lo = append(p.lo, s.lo[0], s.lo[1])
	p.scale = append(p.scale, s.scale[0], s.scale[1])
	p.ord = append(p.ord, uint16(s.orders[0]), uint16(s.orders[1]))
	for _, o := range s.orders {
		if o > p.maxOrd {
			p.maxOrd = o
		}
	}
	for ti := range s.terms {
		t := &s.terms[ti]
		pt := poolTerm{coef: t.coef, c0: 1, c1: 1}
		nc := 0
		for _, op := range s.ops[t.lo:t.hi] {
			switch {
			case op.free == 0:
				pt.idx0 = op.exp // variable 0 starts at block offset 0
			case op.free > 0:
				pt.idx1 = powStride + op.exp
			case nc == 0:
				pt.c0 = op.c
				nc++
			default:
				pt.c1 = op.c
				nc++
			}
		}
		p.nops += int(t.hi - t.lo)
		p.terms = append(p.terms, pt)
	}
	p.termOff = append(p.termOff, uint32(len(p.terms)))
	return id, nil
}

// RespecBatch re-folds every pooled kernel at a new fixed-variable
// operating point in one fused pass. base[i] must be the i-th kernel
// Added to the receiver (or to the pool the receiver was re-folded
// from). The sharing is sound because a specialization's surviving
// term set keys on the model coefficients alone, its factor structure
// on the term exponents, and its free-variable normalization is copied
// from the model — none depend on the fixed values. The returned pool
// therefore shares the receiver's geometry (normalization, orders,
// term offsets) and carries a fresh term bank that starts as a
// straight copy of the receiver's, with only the fixed-variable
// constants (c0/c1) re-folded. It evaluates bit-identically to a pool
// built by Add from the kernels Model.Specialize returns at the new
// point: the power recurrence, clamp, term survival and factor order
// are all unchanged.
//
// The pass verifies the sharing contract as it goes — each kernel's
// free-variable normalization and orders against the pool's geometry
// arrays, each term's coefficient against the base bank — and fails
// rather than building a corrupt bank. Fixed-variable power tables are
// memoized across kernels: arcs characterized over one grid share
// normalization, so the typical table is computed once, not per
// kernel. The result is sealed: Add on it is rejected, and like any
// pool it is read-only once returned.
//
// stalint:coldpath one fused re-fold per additional operating point at
// table-build time, amortized over every subsequent batched query
func (p *Pool) RespecBatch(base []*Specialized, fixed map[string]float64) (*Pool, error) {
	if len(base) != p.NumKernels() {
		return nil, fmt.Errorf("polyfit: Pool.RespecBatch: %d kernels for a pool of %d", len(base), p.NumKernels())
	}
	np := &Pool{
		lo:      p.lo,
		scale:   p.scale,
		ord:     p.ord,
		termOff: p.termOff,
		terms:   make([]poolTerm, len(p.terms)),
		maxOrd:  p.maxOrd,
		nops:    p.nops,
		sealed:  true,
	}
	copy(np.terms, p.terms)
	var memo respecMemo
	for ki, s := range base {
		k := int32(ki)
		if len(s.vars) != 2 {
			return nil, fmt.Errorf("polyfit: Pool.RespecBatch: kernel %d has %d free variables, want 2", ki, len(s.vars))
		}
		// The shared geometry is only valid if base[ki] is the kernel the
		// pool was compiled from, bit for bit.
		// stalint:ignore floatcmp bit-identical normalization is the sharing contract
		if s.lo[0] != p.lo[2*k] || s.lo[1] != p.lo[2*k+1] ||
			s.scale[0] != p.scale[2*k] || s.scale[1] != p.scale[2*k+1] { // stalint:ignore floatcmp bit-identical normalization is the sharing contract
			return nil, fmt.Errorf("polyfit: Pool.RespecBatch: kernel %d normalization differs from the base pool", ki)
		}
		if uint16(s.orders[0]) != p.ord[2*k] || uint16(s.orders[1]) != p.ord[2*k+1] {
			return nil, fmt.Errorf("polyfit: Pool.RespecBatch: kernel %d orders (%d,%d) differ from the base (%d,%d)",
				ki, s.orders[0], s.orders[1], p.ord[2*k], p.ord[2*k+1])
		}
		if int(p.termOff[k+1]-p.termOff[k]) != len(s.terms) {
			return nil, fmt.Errorf("polyfit: Pool.RespecBatch: kernel %d has %d terms, base has %d",
				ki, len(s.terms), p.termOff[k+1]-p.termOff[k])
		}
		pows, err := memo.powsFor(s, fixed)
		if err != nil {
			return nil, err
		}
		for ti := range s.terms {
			t := &s.terms[ti]
			pt := &np.terms[int(p.termOff[k])+ti]
			// stalint:ignore floatcmp coefficients must match bit-for-bit for the banks to be interchangeable
			if t.coef != pt.coef {
				return nil, fmt.Errorf("polyfit: Pool.RespecBatch: kernel %d term %d coefficient differs from the base pool", ki, ti)
			}
			nc := 0
			for _, op := range s.ops[t.lo:t.hi] {
				if op.free >= 0 {
					continue
				}
				c := pows[-1-int(op.free)][op.exp]
				switch nc {
				case 0:
					pt.c0 = c
				case 1:
					pt.c1 = c
				default:
					return nil, fmt.Errorf("polyfit: Pool.RespecBatch: kernel %d term %d has more than two fixed-variable factors", ki, ti)
				}
				nc++
			}
		}
	}
	return np, nil
}

// respecMemo caches the last fixed-variable power block RespecBatch
// built: kernels specialized from models characterized over one grid
// share their fixed-variable normalization bit for bit, so one table
// serves the whole batch and a second grid just rotates the memo.
type respecMemo struct {
	vars      []string
	lo, scale []float64
	orders    []int
	pows      [][]float64
}

func (m *respecMemo) matches(s *Specialized) bool {
	if len(m.vars) != len(s.fixedVars) {
		return false
	}
	for i := range m.vars {
		// The memo stands in for a recomputation, so only exact
		// normalization reuse is sound.
		// stalint:ignore floatcmp bit-identical normalization is the sharing contract
		if m.vars[i] != s.fixedVars[i] || m.lo[i] != s.fixedLo[i] ||
			m.scale[i] != s.fixedScale[i] || m.orders[i] != s.fixedOrders[i] { // stalint:ignore floatcmp bit-identical normalization is the sharing contract
			return false
		}
	}
	return true
}

func (m *respecMemo) powsFor(s *Specialized, fixed map[string]float64) ([][]float64, error) {
	if m.matches(s) {
		return m.pows, nil
	}
	if len(fixed) != len(s.fixedVars) {
		return nil, fmt.Errorf("polyfit: RespecBatch with %d fixed values for %d fixed variables %v",
			len(fixed), len(s.fixedVars), s.fixedVars)
	}
	m.vars, m.lo, m.scale, m.orders = s.fixedVars, s.fixedLo, s.fixedScale, s.fixedOrders
	m.pows = m.pows[:0]
	for fi, name := range s.fixedVars {
		v, ok := fixed[name]
		if !ok {
			return nil, fmt.Errorf("polyfit: RespecBatch: %q was not fixed by Specialize (have %v)", name, s.fixedVars)
		}
		xn := (v - s.fixedLo[fi]) * s.fixedScale[fi]
		if xn < 0 {
			xn = 0
		} else if xn > 1 {
			xn = 1
		}
		p := make([]float64, s.fixedOrders[fi]+1)
		p[0] = 1
		for e := 1; e <= s.fixedOrders[fi]; e++ {
			p[e] = p[e-1] * xn
		}
		m.pows = append(m.pows, p)
	}
	return m.pows, nil
}

// NumKernels returns the number of compiled kernels.
func (p *Pool) NumKernels() int { return len(p.ord) / 2 }

// NumTerms returns the pooled monomial count across all kernels.
func (p *Pool) NumTerms() int { return len(p.terms) }

// NumOps returns the pooled factor count across all kernels
// (identity factors of the fixed term shape excluded).
func (p *Pool) NumOps() int { return p.nops }

// MaxOrder returns the largest per-variable order in the pool.
func (p *Pool) MaxOrder() int { return p.maxOrd }

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
// the desired point. Factor and summation order are exactly
// Specialized.Eval's — bit-identical results.
//
// stalint:noalloc per-lane term loop of the batched query path
func (p *Pool) SumLane(k int32, pw []float64) float64 {
	return p.laneSum(k, pw)
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
		out[i] = p.laneSum(k, pow[i*laneLen:])
	}
}

// powLane is the shared lane setup: kernel k's normalization and
// clamp, power tables run to the requested orders (variable 0 at
// pw[0:], variable 1 at pw[powStride:]) — the same arithmetic, in the
// same order, as Specialized.Eval's per-variable setup.
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

// laneSum evaluates one kernel's terms against a prepared power block:
// coefficient times factors in original order, summed in original
// order — bit-identical to Specialized.Eval's accumulation (absent
// factors are exact 1.0 identities, see poolTerm). The masks just
// prove idx < laneLen to the compiler; both hold by construction. The
// float64 conversion pins the term's rounding per the Go spec, so no
// fused multiply-add can leak into the accumulation on platforms that
// have one.
func (p *Pool) laneSum(k int32, pw []float64) float64 {
	pw = pw[:laneLen]
	terms := p.terms
	total := 0.0
	for ti := p.termOff[k]; ti < p.termOff[k+1]; ti++ {
		t := &terms[ti]
		total += float64(t.coef * pw[t.idx0&(laneLen-1)] * pw[t.idx1&(laneLen-1)] * t.c0 * t.c1)
	}
	return total
}

// EvalOne evaluates kernel k at (x0, x1) using lane 0 of pow (length
// at least ScratchLen()). It is the scalar entry point for inherently
// sequential chains — the slew recurrence of a timing path — and is
// bit-identical to Specialized.Eval on the added kernel.
//
// stalint:noalloc the query path must stay allocation-free; the caller
// owns and reuses the scratch
func (p *Pool) EvalOne(k int32, x0, x1 float64, pow []float64) float64 {
	p.PowLane(k, x0, x1, pow)
	return p.laneSum(k, pow)
}
