package tech

import (
	"math"
	"testing"
	"testing/quick"

	"tpsta/internal/num"
)

func TestRegistry(t *testing.T) {
	if got := Names(); len(got) != 3 || got[0] != "130nm" || got[1] != "90nm" || got[2] != "65nm" {
		t.Fatalf("Names = %v", got)
	}
	for _, name := range Names() {
		tc, err := ByName(name)
		if err != nil || tc.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, tc, err)
		}
	}
	if _, err := ByName("45nm"); err == nil {
		t.Error("ByName should fail for unknown node")
	}
	all := All()
	all[0] = nil // must not corrupt the registry
	if tc, _ := ByName("130nm"); tc == nil {
		t.Error("All() leaked the registry backing array")
	}
}

func TestCardSanity(t *testing.T) {
	for _, tc := range All() {
		if tc.VDD <= tc.VtN || tc.VDD <= tc.VtP {
			t.Errorf("%s: VDD must exceed thresholds", tc.Name)
		}
		if tc.RonP <= tc.RonN {
			t.Errorf("%s: pMOS must be more resistive than nMOS per unit width", tc.Name)
		}
		if tc.WminP <= tc.WminN {
			t.Errorf("%s: pMOS devices are drawn wider", tc.Name)
		}
		if tc.Alpha < 1 || tc.Alpha > 2 {
			t.Errorf("%s: alpha out of range: %v", tc.Name, tc.Alpha)
		}
	}
}

func TestRonAtNominal(t *testing.T) {
	for _, tc := range All() {
		rn := tc.RonAt(true, tc.WminN, 25, tc.VDD)
		if math.Abs(rn-tc.RonN)/tc.RonN > 1e-9 {
			t.Errorf("%s: nominal nMOS Ron = %g, want %g", tc.Name, rn, tc.RonN)
		}
		rp := tc.RonAt(false, tc.WminP, 25, tc.VDD)
		if math.Abs(rp-tc.RonP)/tc.RonP > 1e-9 {
			t.Errorf("%s: nominal pMOS Ron = %g, want %g", tc.Name, rp, tc.RonP)
		}
		// Double width halves resistance.
		if r2 := tc.RonAt(true, 2*tc.WminN, 25, tc.VDD); math.Abs(r2-tc.RonN/2)/tc.RonN > 1e-9 {
			t.Errorf("%s: width scaling broken: %g", tc.Name, r2)
		}
	}
}

func TestRonAtTrends(t *testing.T) {
	for _, tc := range All() {
		// Hotter → more resistive.
		if tc.RonAt(true, tc.WminN, 125, tc.VDD) <= tc.RonAt(true, tc.WminN, 25, tc.VDD) {
			t.Errorf("%s: Ron should rise with temperature", tc.Name)
		}
		// Lower VDD → more resistive.
		if tc.RonAt(true, tc.WminN, 25, 0.9*tc.VDD) <= tc.RonAt(true, tc.WminN, 25, tc.VDD) {
			t.Errorf("%s: Ron should rise as VDD drops", tc.Name)
		}
		// Higher VDD → less resistive.
		if tc.RonAt(true, tc.WminN, 25, 1.1*tc.VDD) >= tc.RonAt(true, tc.WminN, 25, tc.VDD) {
			t.Errorf("%s: Ron should fall as VDD rises", tc.Name)
		}
	}
}

func TestPropertyRonMonotone(t *testing.T) {
	// Ron is monotone in temperature and antitone in VDD over the
	// characterization ranges for every node and polarity.
	f := func(tempSeed, vddSeed uint8, nmos bool) bool {
		for _, tc := range All() {
			t1 := -40 + float64(tempSeed%166)               // [-40, 125]
			t2 := t1 + 1 + float64(vddSeed%20)              // strictly hotter
			v1 := tc.VDD * (0.85 + float64(vddSeed%31)/100) // [0.85, 1.15]·VDD
			v2 := v1 * 1.05
			w := tc.WminN
			if !nmos {
				w = tc.WminP
			}
			if tc.RonAt(nmos, w, t2, v1) <= tc.RonAt(nmos, w, t1, v1) {
				return false
			}
			if tc.RonAt(nmos, w, t1, v2) >= tc.RonAt(nmos, w, t1, v1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVtTemperatureShift(t *testing.T) {
	for _, tc := range All() {
		if tc.Vt(true, 125) >= tc.Vt(true, 25) {
			t.Errorf("%s: Vt should drop with temperature", tc.Name)
		}
		if !num.Eq(tc.Vt(false, 25), tc.VtP) {
			t.Errorf("%s: nominal pMOS Vt wrong", tc.Name)
		}
	}
}

// fo4 is a first-order estimate in seconds of a card's fanout-of-4
// inverter delay at nominal conditions: 0.69·R·C with R the average of
// the unit pull resistances and C four inverter input capacitances
// plus self-loading and wire.
func fo4(t *Tech) float64 {
	r := (t.RonN + t.RonP) / 2
	cin := t.CgOf(t.WminN) + t.CgOf(t.WminP)
	cself := t.CjOf(t.WminN) + t.CjOf(t.WminP)
	return 0.69 * r * (4*cin + cself + t.Cw)
}

func TestFO4Ordering(t *testing.T) {
	// Per the paper's measured delays the 90 nm library is fastest and the
	// two others slower; FO4 must reflect 90nm < 130nm and 90nm < 65nm.
	t130, _ := ByName("130nm")
	t90, _ := ByName("90nm")
	t65, _ := ByName("65nm")
	if !(fo4(t90) < fo4(t130)) {
		t.Errorf("FO4: 90nm (%.3g) should beat 130nm (%.3g)", fo4(t90), fo4(t130))
	}
	if !(fo4(t90) < fo4(t65)) {
		t.Errorf("FO4: 90nm (%.3g) should beat low-power 65nm (%.3g)", fo4(t90), fo4(t65))
	}
	for _, tc := range All() {
		fo4 := fo4(tc)
		if fo4 < 5e-12 || fo4 > 200e-12 {
			t.Errorf("%s: FO4 = %g s, outside plausible range", tc.Name, fo4)
		}
	}
}

func TestCapacitanceHelpers(t *testing.T) {
	tc, _ := ByName("90nm")
	if got := tc.CgOf(2 * tc.WminN); math.Abs(got-2*tc.Cg*tc.WminN) > 1e-25 {
		t.Errorf("CgOf scaling wrong: %g", got)
	}
	if tc.CjOf(tc.WminN) >= tc.CgOf(tc.WminN) {
		t.Error("junction cap should be below gate cap for equal width")
	}
}
