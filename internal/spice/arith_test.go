package spice

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

// same reports bit-for-bit equality.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPowMatchesMathPow is the oracle of the split exponent: for every
// technology's Alpha, network.pow must return math.Pow's bits for x
// across (0, 1], down through the x whose powers near and cross into
// the subnormal range, where pow falls back to math.Pow. Exponents
// that split otherwise (integer part 0 or 2, no fraction, or a
// fraction above one half, which math.Pow rounds up) must agree too.
func TestPowMatchesMathPow(t *testing.T) {
	inv := cell.Default().MustGet("INV")
	rng := rand.New(rand.NewSource(1))
	cards := tech.All()
	techs := len(cards)
	for _, alpha := range []float64{0.5, 0.7, 1, 1.5, 1.7, 2, 2.3} {
		tc := *cards[0]
		tc.Name, tc.Alpha = fmt.Sprintf("alpha %v", alpha), alpha
		cards = append(cards, &tc)
	}
	for i, tc := range cards {
		nw, err := buildNetwork(inv, tc, 25, tc.VDD, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i < techs && !nw.powSplit {
			t.Fatalf("%s: Alpha %v does not split as 1 + fraction; the oracle would test only math.Pow", tc.Name, tc.Alpha)
		}
		var xs []float64
		for i := 0; i < 100000; i++ {
			xs = append(xs, rng.Float64())
			xs = append(xs, math.Exp(-745*rng.Float64())) // log-uniform down to subnormal x
		}
		// The x whose power is the smallest normal, and its neighbours.
		edge := math.Pow(minNormal, 1/tc.Alpha)
		for i, x := 0, edge; i < 2000; i++ {
			xs = append(xs, x)
			x = math.Nextafter(x, 0)
		}
		for i, x := 0, edge; i < 2000; i++ {
			xs = append(xs, x)
			x = math.Nextafter(x, 1)
		}
		xs = append(xs, math.SmallestNonzeroFloat64, minNormal, math.Nextafter(1, 0), 0.5, 1)
		fast := 0
		for _, x := range xs {
			if x <= 0 || x > 1 {
				continue
			}
			got, want := nw.pow(x), math.Pow(x, tc.Alpha)
			if !same(got, want) {
				t.Fatalf("%s: pow(%v) = %v (%#x), math.Pow = %v (%#x)",
					tc.Name, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if want > minNormal {
				fast++
			}
		}
		if nw.powSplit && fast < len(xs)/3 {
			t.Errorf("%s: only %d of %d x took the split path", tc.Name, fast, len(xs))
		}
	}
}

// TestConductanceMatchesReference checks conductance against the
// alpha-power law as written before the sweep: the source from
// math.Min/Max, then gon·Pow of the overdrive fraction clamped at 1.
// Voltages repeat so that the per-device memo hits, change so that it
// misses, and include both signed zeros; a NaN must still come out.
func TestConductanceMatchesReference(t *testing.T) {
	reference := func(nw *network, d *netDevice, vg, va, vb float64) float64 {
		var ov float64
		if d.nmos {
			ov = vg - math.Min(va, vb) - d.vt
		} else {
			ov = math.Max(va, vb) - vg - d.vt
		}
		if ov <= 0 {
			return 0
		}
		return d.gon * math.Pow(math.Min(ov/d.full, 1), nw.tc.Alpha)
	}
	rng := rand.New(rand.NewSource(2))
	negZero := math.Copysign(0, -1)
	for _, tc := range tech.All() {
		for _, name := range []string{"INV", "AO22", "XOR3"} {
			nw, err := buildNetwork(cell.Default().MustGet(name), tc, 25, tc.VDD, 0)
			if err != nil {
				t.Fatal(err)
			}
			volts := make([]float64, 10)
			for i := range volts {
				volts[i] = rng.Float64() * tc.VDD * 1.05
			}
			volts[0], volts[1], volts[2] = 0, negZero, tc.VDD
			for i := 0; i < 20000; i++ {
				d := &nw.devices[rng.Intn(len(nw.devices))]
				vg, va, vb := volts[rng.Intn(len(volts))], volts[rng.Intn(len(volts))], volts[rng.Intn(len(volts))]
				if rng.Intn(4) == 0 {
					volts[3+rng.Intn(len(volts)-3)] = rng.Float64() * tc.VDD * 1.05
				}
				if got, want := nw.conductance(d, vg, va, vb), reference(nw, d, vg, va, vb); !same(got, want) {
					t.Fatalf("%s %s: conductance(%v, %v, %v) = %v, want %v", tc.Name, name, vg, va, vb, got, want)
				}
				// The next representable gate voltage must miss the memo.
				vg = math.Nextafter(vg, math.Inf(1))
				if got, want := nw.conductance(d, vg, va, vb), reference(nw, d, vg, va, vb); !same(got, want) {
					t.Fatalf("%s %s: conductance(%v, %v, %v) = %v, want %v", tc.Name, name, vg, va, vb, got, want)
				}
			}
			for _, d := range nw.devices {
				for _, v := range [][3]float64{
					{math.NaN(), 0, 0}, {tc.VDD, math.NaN(), 0}, {tc.VDD, 0, math.NaN()}, {0, tc.VDD, math.NaN()},
				} {
					if got := nw.conductance(&d, v[0], v[1], v[2]); !math.IsNaN(got) {
						t.Errorf("%s %s: conductance(%v) = %v, want NaN", tc.Name, name, v, got)
					}
				}
			}
		}
	}
}

// solveLinearRef is solveLinear as it was before elimination stopped
// updating the eliminated column: the oracle of TestSolveLinearMatchesReference.
func solveLinearRef(G [][]float64, I, x []float64) error {
	n := len(I)
	for col := 0; col < n; col++ {
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
			for c := col; c < n; c++ {
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

// TestSolveLinearMatchesReference solves the same systems with
// solveLinear and solveLinearRef and wants the same bits: random
// dense and sparse systems that pivot, and the conductance matrices
// the transient assembles for every cell of the library.
func TestSolveLinearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(what string, G [][]float64, I []float64) {
		t.Helper()
		n := len(I)
		G1, G2 := newMatrix(n), newMatrix(n)
		for i := range G {
			copy(G1[i], G[i])
			copy(G2[i], G[i])
		}
		I1, I2 := append([]float64(nil), I...), append([]float64(nil), I...)
		x1, x2 := make([]float64, n), make([]float64, n)
		err1, err2 := solveLinear(G1, I1, x1), solveLinearRef(G2, I2, x2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: errors differ: %v vs %v", what, err1, err2)
		}
		for i := range x1 {
			if !same(x1[i], x2[i]) {
				t.Fatalf("%s: x[%d] = %v, reference %v", what, i, x1[i], x2[i])
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		G := newMatrix(n)
		I := make([]float64, n)
		for i := range G {
			for j := range G[i] {
				if rng.Intn(3) > 0 {
					G[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
				}
			}
			I[i] = rng.NormFloat64()
		}
		check(fmt.Sprintf("random %d", trial), G, I)
	}
	tc := t130(t)
	for _, c := range cell.Default().Cells() {
		nw, err := buildNetwork(c, tc, 25, tc.VDD, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := len(nw.nodes)
		G, I := newMatrix(n), make([]float64, n)
		v, vp := make([]float64, n), make([]float64, len(nw.pinNames))
		for trial := 0; trial < 50; trial++ {
			for i := range v {
				v[i] = rng.Float64() * tc.VDD
			}
			for i := range vp {
				vp[i] = rng.Float64() * tc.VDD
			}
			nw.assemble(v, vp, G, I)
			for i := range G {
				G[i][i] += nw.caps[i] / 1e-13
			}
			check(c.Name, G, I)
		}
	}
}
