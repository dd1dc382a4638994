package spice

import (
	"fmt"
	"strings"

	"tpsta/internal/cell"
	"tpsta/internal/logic"
)

// DeviceState is the condition of one transistor during a sensitized
// transition, in the notation of the paper's Figs. 2 and 3: steady ON
// (arrow), steady OFF (cross), or switching with the final state given
// (dashed arrow / dashed cross).
type DeviceState int

// Device conditions.
const (
	StateOff DeviceState = iota
	StateOn
	StateTurnsOn  // off → on (dashed arrow)
	StateTurnsOff // on → off (dashed cross)
)

// String renders the state.
func (s DeviceState) String() string {
	switch s {
	case StateOff:
		return "OFF"
	case StateOn:
		return "ON"
	case StateTurnsOn:
		return "OFF→ON"
	case StateTurnsOff:
		return "ON→OFF"
	default:
		return fmt.Sprintf("DeviceState(%d)", int(s))
	}
}

// DeviceReport pairs a topology device with its state.
type DeviceReport struct {
	Device cell.Device
	State  DeviceState
}

// StateReport computes, for a sensitized transition (pin and side values
// from vec, direction from inputRising), the steady/switching state of
// every transistor of the cell — the analysis of the paper's Figs. 2/3.
func StateReport(c *cell.Cell, vec cell.Vector, inputRising bool) ([]DeviceReport, error) {
	// Net logic values before and after the transition.
	env := make(map[string]logic.Value, len(c.Inputs)+len(c.Stages))
	for side, lvl := range vec.Side {
		if lvl {
			env[side] = logic.V1
		} else {
			env[side] = logic.V0
		}
	}
	if inputRising {
		env[vec.Pin] = logic.VR
	} else {
		env[vec.Pin] = logic.VF
	}
	for _, st := range c.Stages {
		env[st.Out] = logic.Not(st.PD.Eval(env))
	}

	top := c.Topology()
	out := make([]DeviceReport, len(top.Devices))
	for i, d := range top.Devices {
		gv, ok := env[d.Gate]
		if !ok {
			return nil, fmt.Errorf("spice: gate net %q has no value", d.Gate)
		}
		conducts := func(t logic.Trit) (bool, error) {
			switch t {
			case logic.T1:
				return d.NMOS, nil
			case logic.T0:
				return !d.NMOS, nil
			default:
				return false, fmt.Errorf("spice: gate net %q undetermined under vector %s", d.Gate, vec.Key())
			}
		}
		before, err := conducts(gv.Initial())
		if err != nil {
			return nil, err
		}
		after, err := conducts(gv.Final())
		if err != nil {
			return nil, err
		}
		switch {
		case before && after:
			out[i] = DeviceReport{d, StateOn}
		case !before && !after:
			out[i] = DeviceReport{d, StateOff}
		case after:
			out[i] = DeviceReport{d, StateTurnsOn}
		default:
			out[i] = DeviceReport{d, StateTurnsOff}
		}
	}
	return out, nil
}

// FormatStateReport renders a report as the textual equivalent of a
// Fig. 2/3 panel: one line per device with polarity, gate net, channel
// terminals and state.
func FormatStateReport(c *cell.Cell, vec cell.Vector, inputRising bool) (string, error) {
	reps, err := StateReport(c, vec, inputRising)
	if err != nil {
		return "", err
	}
	dir := "falling"
	if inputRising {
		dir = "rising"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s %s via %s (Case %d, %s)\n",
		c.Name, dir, "transition", vec.Pin, vec.Case, vec.Key())
	for _, r := range reps {
		pol := "pMOS"
		if r.Device.NMOS {
			pol = "nMOS"
		}
		fmt.Fprintf(&b, "  %s %-4s  %s—%s  %s\n", pol, r.Device.Gate, r.Device.A, r.Device.B, r.State)
	}
	return b.String(), nil
}

// OnPathResistanceFactor returns the count of parallel ON devices in the
// series element adjacent to the switching device of the first stage —
// the paper's first-order explanation of why Case 1 of AO22 is fastest.
// Only TestOnPathResistanceFactor calls it, to pin that explanation;
// the transient simulator does not use it.
func OnPathResistanceFactor(c *cell.Cell, vec cell.Vector, inputRising bool) (int, error) {
	reps, err := StateReport(c, vec, inputRising)
	if err != nil {
		return 0, err
	}
	// Find the switching device of the conducting network in stage 1: the
	// one whose gate is the sensitized pin and that turns on.
	var sw *DeviceReport
	for i := range reps {
		r := &reps[i]
		if r.Device.Gate == vec.Pin && r.State == StateTurnsOn {
			sw = r
			break
		}
	}
	if sw == nil {
		return 0, fmt.Errorf("spice: no switching device for pin %s", vec.Pin)
	}
	// Count steady-ON devices of the same polarity sharing a channel node
	// with it via the series chain: ON devices between the switching
	// device's far terminal and the rail, grouped by parallel terminals.
	count := 0
	for _, r := range reps {
		if r.State != StateOn || r.Device.NMOS != sw.Device.NMOS {
			continue
		}
		if r.Device.A == sw.Device.A || r.Device.B == sw.Device.B ||
			r.Device.A == sw.Device.B || r.Device.B == sw.Device.A {
			count++
		}
	}
	return count, nil
}
