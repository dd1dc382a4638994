package spice

import (
	"fmt"
	"math"

	"tpsta/internal/cell"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

// node index sentinels for rail terminals.
const (
	railVDD = -1
	railGND = -2
)

// netDevice is one transistor of an elaborated network, with indices
// resolved and electrical parameters pre-computed for the simulation
// conditions.
type netDevice struct {
	nmos bool
	// gateNode is the solvable-node index of the gate net, or -1 when the
	// gate is a driven pin (gatePin set instead).
	gateNode int
	gatePin  int
	a, b     int // channel terminal node indices, or railVDD/railGND
	gon      float64
	vt       float64
	// full is the saturation overdrive max(vdd−vt, 0.05): conduction
	// reaches gon when the gate overdrive reaches it.
	full float64
	// memoOv holds the bits of the last overdrive conductance raised
	// to the power for, memoG the result. The zero value never
	// matches: only a positive overdrive reaches the memo.
	memoOv uint64
	memoG  float64
}

// network is a cell's RC network prepared for transient solution.
type network struct {
	name string // the cell's name, for errors
	tc   *tech.Tech
	temp float64
	vdd  float64

	nodes    []string // solvable node names; index = node id
	nodeIdx  map[string]int
	caps     []float64 // nodal capacitance to ground
	devices  []netDevice
	pinNames []string // driven pin order; device.gatePin indexes this
	pinIdx   map[string]int
	zIdx     int     // index of the cell output node
	zCap     float64 // Z's capacitance without the external load

	// powFrac is the fraction of tc.Alpha math.Pow raises x to through
	// Exp and Log; powSplit reports that the integer part left beside
	// it is 1, so that x^Alpha is exp(powFrac·log x)·x (see pow).
	powFrac  float64
	powSplit bool
}

// gleak is a tiny leakage conductance from every solvable node to GND,
// keeping the DC operating point defined for floating internal nodes.
const gleak = 1e-9

// buildNetwork elaborates cell c under technology tc at the given
// temperature and supply, with an external capacitance load attached to Z.
func buildNetwork(c *cell.Cell, tc *tech.Tech, temp, vdd, load float64) (*network, error) {
	top := c.Topology()
	nw := &network{
		name: c.Name, tc: tc, temp: temp, vdd: vdd,
		nodeIdx: map[string]int{},
		pinIdx:  map[string]int{},
	}
	nw.powFrac, nw.powSplit = splitAlpha(tc.Alpha)
	for _, p := range c.Inputs {
		nw.pinIdx[p] = len(nw.pinNames)
		nw.pinNames = append(nw.pinNames, p)
	}
	// Solvable nodes: every topology net that is not a driven pin.
	for _, n := range top.Nets {
		if _, driven := nw.pinIdx[n]; driven {
			continue
		}
		nw.nodeIdx[n] = len(nw.nodes)
		nw.nodes = append(nw.nodes, n)
	}
	zi, ok := nw.nodeIdx[cell.Output]
	if !ok {
		return nil, fmt.Errorf("spice: cell %s has no output node", c.Name)
	}
	nw.zIdx = zi
	nw.caps = make([]float64, len(nw.nodes))

	chanIdx := func(name string) (int, error) {
		switch name {
		case cell.VDD:
			return railVDD, nil
		case cell.GND:
			return railGND, nil
		}
		if i, ok := nw.nodeIdx[name]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("spice: channel terminal %q of cell %s is not a solvable node", name, c.Name)
	}

	for _, d := range top.Devices {
		w := d.W * tc.WminP
		if d.NMOS {
			w = d.W * tc.WminN
		}
		ai, err := chanIdx(d.A)
		if err != nil {
			return nil, err
		}
		bi, err := chanIdx(d.B)
		if err != nil {
			return nil, err
		}
		vt := tc.Vt(d.NMOS, temp)
		full := vdd - vt
		if full < 0.05 {
			full = 0.05
		}
		nd := netDevice{
			nmos:     d.NMOS,
			gateNode: -1,
			gatePin:  -1,
			a:        ai,
			b:        bi,
			gon:      1 / tc.RonAt(d.NMOS, w, temp, vdd),
			vt:       vt,
			full:     full,
		}
		if pi, driven := nw.pinIdx[d.Gate]; driven {
			nd.gatePin = pi
		} else if gi, ok := nw.nodeIdx[d.Gate]; ok {
			nd.gateNode = gi
		} else {
			return nil, fmt.Errorf("spice: gate net %q of cell %s unknown", d.Gate, c.Name)
		}
		nw.devices = append(nw.devices, nd)
		// Junction caps at channel terminals.
		if ai >= 0 {
			nw.caps[ai] += tc.CjOf(w)
		}
		if bi >= 0 {
			nw.caps[bi] += tc.CjOf(w)
		}
		// Gate cap loads internal driver nets (driven pins are ideal
		// sources and absorb their own gate load).
		if nd.gateNode >= 0 {
			nw.caps[nd.gateNode] += tc.CgOf(w)
		}
	}
	// Wire cap on stage outputs; external load on Z.
	for _, st := range c.Stages {
		if i, ok := nw.nodeIdx[st.Out]; ok {
			nw.caps[i] += tc.Cw
		}
	}
	nw.zCap = nw.caps[zi]
	// Guard: every node needs a nonzero capacitance for the integrator.
	for i, cp := range nw.caps {
		if cp <= 0 {
			nw.caps[i] = 1e-18
		}
	}
	nw.setLoad(load)
	return nw, nil
}

// setLoad attaches the external capacitance load to Z in place of the
// previous one, under the same nonzero guard as every other node.
func (nw *network) setLoad(load float64) {
	cp := nw.zCap + load
	if cp <= 0 {
		cp = 1e-18
	}
	nw.caps[nw.zIdx] = cp
}

// splitAlpha splits alpha the way math.Pow splits its exponent: frac
// is the part it computes as Exp(frac·Log(x)), and split reports that
// the integer part it then multiplies in is exactly 1.
func splitAlpha(alpha float64) (frac float64, split bool) {
	whole, frac := math.Modf(alpha)
	if frac > 0.5 {
		frac--
		whole++
	}
	return frac, int(whole) == 1 && !num.IsZero(frac)
}

// minNormal is the smallest normal float64.
const minNormal = 0x1p-1022

// pow returns math.Pow(x, tc.Alpha), bit for bit, for 0 < x <= 1. When
// the exponent splits as 1 + powFrac, math.Pow returns
// Ldexp(Exp(powFrac·Log(x))·m, e) for x = m·2^e; the product by x
// itself rounds the same whenever it is normal, and the scaling is
// exact.
func (nw *network) pow(x float64) float64 {
	if nw.powSplit {
		if p := math.Exp(nw.powFrac*math.Log(x)) * x; p > minNormal {
			return p
		}
	}
	return math.Pow(x, nw.tc.Alpha)
}

// conductance returns the channel conductance of d given the gate voltage
// and the two channel terminal voltages, using a clamped alpha-power-law
// activation above threshold: gon·x^Alpha for the overdrive fraction
// x = ov/full, clamped at 1.
//
// It returns exactly those bits with less work. The source terminal
// is picked by comparison rather than math.Min/Max: the two disagree
// only on the sign of a zero, which the subtraction of vt erases, and
// a NaN still propagates. An overdrive of at least full clamps without
// the division (ov/full rounds to at least 1), and 1^Alpha is 1. The
// last overdrive and its conductance are kept per device.
func (nw *network) conductance(d *netDevice, vg, va, vb float64) float64 {
	var ov float64
	if d.nmos {
		vs := va
		if vb < va || math.IsNaN(vb) {
			vs = vb
		}
		ov = vg - vs - d.vt
	} else {
		vs := va
		if vb > va || math.IsNaN(vb) {
			vs = vb
		}
		ov = vs - vg - d.vt
	}
	if ov <= 0 {
		return 0
	}
	if ov >= d.full {
		return d.gon
	}
	if math.Float64bits(ov) == d.memoOv {
		return d.memoG
	}
	g := d.gon * nw.pow(ov/d.full)
	d.memoOv, d.memoG = math.Float64bits(ov), g
	return g
}

// termVolt resolves a channel terminal index to a voltage.
func (nw *network) termVolt(idx int, v []float64) float64 {
	switch idx {
	case railVDD:
		return nw.vdd
	case railGND:
		return 0
	default:
		return v[idx]
	}
}

// assemble stamps the conductance matrix G and current vector I for the
// current voltage estimate v and pin voltages vp. The backward-Euler
// capacitor companions (C/dt terms) are added by the caller.
func (nw *network) assemble(v, vp []float64, G [][]float64, I []float64) {
	for i, row := range G {
		clear(row)
		I[i] = 0
		row[i] = gleak
	}
	for k := range nw.devices {
		d := &nw.devices[k]
		var vg float64
		if d.gatePin >= 0 {
			vg = vp[d.gatePin]
		} else {
			vg = v[d.gateNode]
		}
		va := nw.termVolt(d.a, v)
		vb := nw.termVolt(d.b, v)
		g := nw.conductance(d, vg, va, vb)
		if num.IsZero(g) {
			continue
		}
		// Stamp g between the channel terminals; a rail terminal
		// becomes a source current into the other.
		if d.a >= 0 {
			G[d.a][d.a] += g
			if d.b >= 0 {
				G[d.a][d.b] -= g
			} else {
				I[d.a] += g * vb
			}
		}
		if d.b >= 0 {
			G[d.b][d.b] += g
			if d.a >= 0 {
				G[d.b][d.a] -= g
			} else {
				I[d.b] += g * va
			}
		}
	}
}

// solveLinear solves G x = I by Gaussian elimination with partial
// pivoting, writing the solution into x (len(I) long). G and I are
// destroyed.
func solveLinear(G [][]float64, I, x []float64) error {
	n := len(I)
	for col := 0; col < n; col++ {
		// pivot
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(G[r][col]) > math.Abs(G[p][col]) {
				p = r
			}
		}
		if math.Abs(G[p][col]) < 1e-30 {
			return fmt.Errorf("spice: singular conductance matrix at column %d", col)
		}
		if p != col {
			G[col], G[p] = G[p], G[col]
			I[col], I[p] = I[p], I[col]
		}
		pivot := G[col]
		inv := 1 / pivot[col]
		for r := col + 1; r < n; r++ {
			row := G[r]
			f := row[col] * inv
			if num.IsZero(f) {
				continue
			}
			// row[col] itself is never read again.
			for c := col + 1; c < n; c++ {
				row[c] -= f * pivot[c]
			}
			I[r] -= f * I[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		row := G[r]
		sum := I[r]
		for c := r + 1; c < n; c++ {
			sum -= row[c] * x[c]
		}
		x[r] = sum / row[r]
	}
	return nil
}

// dcMaxIter caps dcSolve's iterations.
const dcMaxIter = 60

// dcSolve finds the operating point for fixed pin voltages vp by damped
// fixed-point iteration on the nonlinear conductances. converged is
// false when the iteration stops at dcMaxIter without settling; v is
// then its last iterate.
func (nw *network) dcSolve(vp []float64) (v []float64, converged bool, err error) {
	n := len(nw.nodes)
	v = make([]float64, n)
	// Start mid-rail to give the activation functions a gradient.
	for i := range v {
		v[i] = nw.vdd / 2
	}
	G := newMatrix(n)
	I := make([]float64, n)
	x := make([]float64, n)
	for iter := 0; iter < dcMaxIter; iter++ {
		nw.assemble(v, vp, G, I)
		if err := solveLinear(G, I, x); err != nil {
			return nil, false, err
		}
		delta := 0.0
		for i := range v {
			d := x[i] - v[i]
			if math.Abs(d) > delta {
				delta = math.Abs(d)
			}
			v[i] += 0.7 * d // damping for stable convergence
		}
		if delta < 1e-6 {
			return v, true, nil
		}
	}
	return v, false, nil
}

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range m {
		m[i] = buf[i*n : (i+1)*n]
	}
	return m
}
