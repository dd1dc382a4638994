// Package cell implements the standard-cell library: logic functions,
// CMOS stage structure, transistor-network elaboration, per-pin input
// capacitance and — central to the paper — exhaustive enumeration of the
// sensitization vectors of every (cell, input) pair.
//
// A cell is modelled as a chain of static CMOS stages. Each stage is a
// series/parallel pull-down expression PD over stage inputs (cell pins or
// internal nets); the stage computes NOT(PD) and its pull-up network is the
// structural dual of PD. Complex cells such as AO22 are a complex core
// stage followed by an output inverter, exactly the structure the paper's
// transistor-level analysis (Figs. 2 and 3) assumes. XOR/XNOR/MUX cells
// use internal inverters plus a complex core.
package cell

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"tpsta/internal/expr"
	"tpsta/internal/logic"
	"tpsta/internal/tech"
)

// Stage is one static CMOS stage of a cell.
type Stage struct {
	// PD is the unate series/parallel pull-down expression. Variables name
	// either cell input pins or internal nets produced by earlier stages.
	PD expr.Node
	// Out is the net the stage drives: an internal net name or "Z" for the
	// cell output.
	Out string
	// WN and WP are width multipliers (relative to the technology minimum
	// widths) applied to every device of the corresponding polarity in the
	// stage; set by stack-depth compensation during library construction.
	WN, WP float64
}

// Cell is one library cell.
//
// stalint:shared — a Cell is built once by library construction, its lazy
// caches are warmed before the library is published, and it is then read
// concurrently by every search worker. The sharedstate analyzer flags any
// new field write outside constructor or sync.Once scope.
type Cell struct {
	// Name is the library cell name, e.g. "AO22".
	Name string
	// Inputs lists the input pin names in declaration order.
	Inputs []string
	// Function is the cell's logic function over Inputs.
	Function expr.Node
	// Stages is the CMOS implementation, in topological order; the last
	// stage drives "Z".
	Stages []Stage

	vectors  map[string][]Vector // per-pin sensitization vectors, lazily built
	topology *Topology           // elaborated transistor network, lazily built
	table    []logic.Value       // output per input-Value row (see Fold), set at construction

	// justify caches the prime-implicant cubes per required output value
	// ([0] = false, [1] = true). Each slot is guarded by its own
	// sync.Once, so concurrent searchers share one computation with no
	// lock on the read path (see JustifyCubes).
	justify [2]justifySlot
}

// justifySlot is one lazily-built justification-cube cache entry.
type justifySlot struct {
	once  sync.Once
	cubes []Cube
}

// Output is the name of every cell's output net.
const Output = "Z"

// Vector is one sensitization vector: a complete assignment of the side
// inputs of a (cell, pin) pair that lets a transition on the pin propagate
// to the output.
type Vector struct {
	// Pin is the sensitized input.
	Pin string
	// Case is the 1-based index of the vector in the paper's "Case n"
	// numbering (side inputs sorted, assignments in increasing binary
	// order — this reproduces Tables 1 and 2 exactly).
	Case int
	// Side maps each side input to its required steady value.
	Side map[string]bool

	key string // cached Key(), filled by Vectors()

	// outEdge memoizes Cell.OutputEdge per input edge ([0] falling,
	// [1] rising), filled by Vectors(): 0 = not computed (hand-built
	// vector), 1 = does not propagate, 2 = output falls, 3 = output
	// rises. The search consults OutputEdge on every sensitization
	// decision and the delay kernels on every arc, so the memo keeps
	// both paths free of the per-call logic-environment allocation.
	outEdge [2]uint8
}

// Key returns a canonical, order-independent rendering such as
// "B=1,C=0,D=0", used for map keys and characterization-library indices.
// Vectors obtained from Cell.Vectors carry it precomputed, keeping the
// delay-query hot path allocation-free.
func (v Vector) Key() string {
	if v.key != "" {
		return v.key
	}
	return buildVectorKey(v.Side)
}

func buildVectorKey(side map[string]bool) string {
	names := make([]string, 0, len(side))
	for n := range side {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		b := "0"
		if side[n] {
			b = "1"
		}
		parts[i] = n + "=" + b
	}
	return strings.Join(parts, ",")
}

// String renders the vector as "pin[case]: side assignment".
func (v Vector) String() string {
	return fmt.Sprintf("%s[%d]: %s", v.Pin, v.Case, v.Key())
}

// Vectors returns the exhaustive list of sensitization vectors for pin,
// in the paper's Case order. The result is cached; callers must not
// mutate it. Unknown pins yield nil (and are never cached, so querying
// one on a shared, precomputed cell performs no map write).
//
// Cells obtained from a Lib are fully precomputed at construction and
// safe for concurrent use.
func (c *Cell) Vectors(pin string) []Vector {
	if vs, ok := c.vectors[pin]; ok {
		return vs
	}
	// stalint:alloc-ok cache miss compiles the pin's vectors once; library cells are precomputed before any hot path runs
	if !slices.Contains(c.Inputs, pin) {
		return nil
	}
	if c.vectors == nil {
		// stalint:ignore sharedstate warm-before-share: library construction exercises every pin before publishing the cell
		c.vectors = make(map[string][]Vector, len(c.Inputs))
	}
	assigns := expr.SensitizingAssignments(c.Function, pin)
	vs := make([]Vector, len(assigns))
	for i, a := range assigns {
		vs[i] = Vector{Pin: pin, Case: i + 1, Side: a, key: buildVectorKey(a)}
		for ei, rising := range [2]bool{false, true} {
			outR, ok := c.outputEdgeSlow(vs[i], rising)
			vs[i].outEdge[ei] = encodeOutEdge(outR, ok)
		}
	}
	// stalint:ignore sharedstate warm-before-share: see above
	c.vectors[pin] = vs
	return vs
}

// MultiVectorPins lists the inputs that have more than one sensitization
// vector — the pins whose delay is vector-dependent.
func (c *Cell) MultiVectorPins() []string {
	var out []string
	for _, p := range c.Inputs {
		if len(c.Vectors(p)) > 1 {
			out = append(out, p)
		}
	}
	return out
}

// IsComplex reports whether any input has more than one sensitization
// vector — the paper's working definition of a complex gate for timing
// purposes.
func (c *Cell) IsComplex() bool { return len(c.MultiVectorPins()) > 0 }

// Eval evaluates the cell function over transition-logic values.
func (c *Cell) Eval(env map[string]logic.Value) logic.Value {
	return c.Function.Eval(env)
}

// OutputEdge returns the output transition direction when pin makes the
// given transition under vector v: true for a rising output. The second
// result is false if the vector does not actually propagate the
// transition (which would indicate a corrupted vector). Vectors
// obtained from Cell.Vectors answer from a per-edge memo; hand-built
// vectors fall back to evaluating the cell function.
func (c *Cell) OutputEdge(v Vector, inputRising bool) (outputRising, ok bool) {
	ei := 0
	if inputRising {
		ei = 1
	}
	if m := v.outEdge[ei]; m != 0 {
		return m == 3, m >= 2
	}
	return c.outputEdgeSlow(v, inputRising)
}

// encodeOutEdge packs an OutputEdge result into the Vector memo.
func encodeOutEdge(outputRising, ok bool) uint8 {
	switch {
	case !ok:
		return 1
	case outputRising:
		return 3
	default:
		return 2
	}
}

// outputEdgeSlow evaluates the cell function under the vector's side
// assignment — the uncached path behind OutputEdge.
func (c *Cell) outputEdgeSlow(v Vector, inputRising bool) (outputRising, ok bool) {
	env := make(map[string]logic.Value, len(c.Inputs))
	for side, val := range v.Side {
		env[side] = logic.StableOf(trit(val))
	}
	if inputRising {
		env[v.Pin] = logic.VR
	} else {
		env[v.Pin] = logic.VF
	}
	out := c.Function.Eval(env)
	switch out {
	case logic.VR:
		return true, true
	case logic.VF:
		return false, true
	default:
		return false, false
	}
}

// Inverting reports whether a rising transition on pin under vector v
// produces a falling output.
func (c *Cell) Inverting(v Vector) bool {
	outRising, ok := c.OutputEdge(v, true)
	return ok && !outRising
}

// InputCap returns the input capacitance in farads presented by pin: the
// summed gate capacitance of every device the pin drives, under the given
// technology. The paper measures this by integrating input current; the
// switch-level model makes it exactly the connected gate capacitance, and
// like the paper's measurement it is independent of input slope,
// temperature and supply.
func (c *Cell) InputCap(t *tech.Tech, pin string) float64 {
	top := c.Topology()
	cap := 0.0
	for _, d := range top.Devices {
		if d.Gate != pin {
			continue
		}
		if d.NMOS {
			cap += t.CgOf(d.W * t.WminN)
		} else {
			cap += t.CgOf(d.W * t.WminP)
		}
	}
	return cap
}

// MaxInputCap returns the largest per-pin input capacitance of the cell.
func (c *Cell) MaxInputCap(t *tech.Tech) float64 {
	max := 0.0
	for _, p := range c.Inputs {
		if v := c.InputCap(t, p); v > max {
			max = v
		}
	}
	return max
}

func trit(b bool) logic.Trit {
	if b {
		return logic.T1
	}
	return logic.T0
}

// checkStages verifies (at library construction) that the stage chain
// computes exactly the declared Function; it returns an error describing
// the first mismatching cell.
func (c *Cell) checkStages() error {
	vars := expr.Vars(c.Function)
	rows := 1 << len(vars)
	for r := 0; r < rows; r++ {
		env := make(map[string]logic.Value, len(vars)+len(c.Stages))
		benv := make(map[string]bool, len(vars))
		for i, name := range vars {
			bit := r>>i&1 == 1
			benv[name] = bit
			env[name] = logic.StableOf(trit(bit))
		}
		for _, st := range c.Stages {
			env[st.Out] = logic.Not(st.PD.Eval(env))
		}
		want := expr.EvalBool(c.Function, benv)
		if (env[Output] == logic.V1) != want {
			return fmt.Errorf("cell %s: stage chain disagrees with Function at row %d", c.Name, r)
		}
	}
	return nil
}
