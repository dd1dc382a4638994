// Package spice is the electrical-simulation substrate standing in for
// the commercial simulator (Spectre) used by the paper. It elaborates a
// cell's transistor topology into an RC network — voltage-controlled
// switch-level MOS conductances with alpha-power-law drive, gate and
// junction parasitic capacitances — and solves the transient with backward
// Euler. Gate delays (50 %–50 %) and output transition times (10 %–90 %)
// are measured from the waveforms; whole paths are simulated by chaining
// each gate's output waveform into the next gate's input.
//
// The simulator reproduces the two mechanisms the paper's Section III
// identifies behind sensitization-vector-dependent delay: the number of
// parallel ON devices in the conducting pull network (effective resistance)
// and ON devices of the opposite network exposing internal parasitic
// capacitance to the switching node (charge sharing).
package spice

import (
	"fmt"
	"sort"
)

// Waveform is a piecewise-linear voltage trace. Times are strictly
// increasing; the waveform holds its first value before Times[0] and its
// last value after Times[len-1].
type Waveform struct {
	Times []float64
	Volts []float64
}

// At returns the voltage at time t by linear interpolation.
func (w Waveform) At(t float64) float64 {
	n := len(w.Times)
	if n == 0 {
		return 0
	}
	if t <= w.Times[0] {
		return w.Volts[0]
	}
	if t >= w.Times[n-1] {
		return w.Volts[n-1]
	}
	i := sort.SearchFloat64s(w.Times, t)
	// w.Times[i-1] < t <= w.Times[i]
	t0, t1 := w.Times[i-1], w.Times[i]
	v0, v1 := w.Volts[i-1], w.Volts[i]
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// Cross returns the first time the waveform crosses voltage v in the
// given direction. ok is false if it never does.
func (w Waveform) Cross(v float64, rising bool) (t float64, ok bool) {
	for i := 1; i < len(w.Times); i++ {
		v0, v1 := w.Volts[i-1], w.Volts[i]
		if crosses(v0, v1, v, rising) {
			t0, t1 := w.Times[i-1], w.Times[i]
			return t0 + (t1-t0)*(v-v0)/(v1-v0), true
		}
	}
	return 0, false
}

// crosses reports whether the segment from v0 to v1 crosses level v in
// the given direction: the test Cross applies to every segment, and the
// one a measurement-only transient uses to see that a level has been
// crossed.
func crosses(v0, v1, v float64, rising bool) bool {
	if rising {
		return v0 < v && v1 >= v
	}
	return v0 > v && v1 <= v
}

// Final returns the last voltage of the waveform.
func (w Waveform) Final() float64 {
	if len(w.Volts) == 0 {
		return 0
	}
	return w.Volts[len(w.Volts)-1]
}

// Slew returns the 10 %–90 % transition time of the waveform's main edge
// relative to the supply vdd; ok is false if the edge never completes.
func (w Waveform) Slew(vdd float64, rising bool) (float64, bool) {
	return w.SlewBetween(vdd, 0.1, 0.9, rising)
}

// SlewBetween measures the transition time between the lo and hi supply
// fractions (e.g. 0.2/0.8 for the 20–80 % convention some commercial
// characterization flows use).
func (w Waveform) SlewBetween(vdd, lo, hi float64, rising bool) (float64, bool) {
	vl, vh := lo*vdd, hi*vdd
	if rising {
		t1, ok1 := w.Cross(vl, true)
		t2, ok2 := w.Cross(vh, true)
		if !ok1 || !ok2 {
			return 0, false
		}
		return t2 - t1, true
	}
	t1, ok1 := w.Cross(vh, false)
	t2, ok2 := w.Cross(vl, false)
	if !ok1 || !ok2 {
		return 0, false
	}
	return t2 - t1, true
}

// slewToRamp converts a 10–90 % transition time to the full 0–100 % ramp
// duration of a linear ramp.
const slewToRamp = 1 / 0.8

// Ramp builds a linear input ramp starting at time start with the given
// 10–90 % transition time, swinging the full rail (0↔vdd).
func Ramp(start, slew1090, vdd float64, rising bool) Waveform {
	dur := slew1090 * slewToRamp
	if dur <= 0 {
		dur = 1e-15
	}
	v0, v1 := 0.0, vdd
	if !rising {
		v0, v1 = vdd, 0
	}
	return Waveform{
		Times: []float64{start, start + dur},
		Volts: []float64{v0, v1},
	}
}

// Flat builds a constant waveform.
func Flat(v float64) Waveform {
	return Waveform{Times: []float64{0}, Volts: []float64{v}}
}

// validate checks monotone time order (used by tests and the simulator).
func (w Waveform) validate() error {
	if len(w.Times) != len(w.Volts) {
		return fmt.Errorf("spice: waveform has %d times but %d volts", len(w.Times), len(w.Volts))
	}
	for i := 1; i < len(w.Times); i++ {
		if w.Times[i] <= w.Times[i-1] {
			return fmt.Errorf("spice: waveform times not increasing at %d", i)
		}
	}
	return nil
}
