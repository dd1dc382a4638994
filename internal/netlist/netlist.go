// Package netlist provides the gate-level circuit representation used by
// the STA engines: a DAG of standard-cell instances over named nets, a
// hand-written ISCAS-85 .bench parser/writer (no EDA ecosystem exists in
// Go — see DESIGN.md), DAG utilities (topological order, levelization,
// fanin cones) and a technology mapper that covers primitive AND/OR trees
// into the complex cells (AO22, OA12, AOI/OAI…) whose sensitization
// vectors the paper studies.
package netlist

import (
	"fmt"

	"tpsta/internal/cell"
	"tpsta/internal/expr"
	"tpsta/internal/tech"
)

// Node is one net of the circuit.
type Node struct {
	// ID is the dense index of the node within its circuit.
	ID int
	// Name is the net name from the source netlist.
	Name string
	// Driver is the gate driving the net; nil for primary inputs.
	Driver *Gate
	// Fanout lists every gate input pin the net feeds.
	Fanout []PinRef
	// IsInput and IsOutput mark primary inputs/outputs. An output may
	// still have internal fanout.
	IsInput  bool
	IsOutput bool
}

// PinRef addresses one gate input pin.
type PinRef struct {
	Gate *Gate
	Pin  string
}

// Gate is one cell instance.
type Gate struct {
	// ID is the dense index of the gate within its circuit.
	ID int
	// Name is the instance name (defaults to the output net name).
	Name string
	// Cell is the library cell.
	Cell *cell.Cell
	// Fanin maps each cell input pin to its net.
	Fanin map[string]*Node
	// Out is the driven net.
	Out *Node
}

// PinOf returns the pin of g that net n drives, or "" if none.
func (g *Gate) PinOf(n *Node) string {
	for _, pin := range g.Cell.Inputs {
		if g.Fanin[pin] == n {
			return pin
		}
	}
	return ""
}

// Circuit is a combinational gate-level netlist.
type Circuit struct {
	// Name identifies the circuit (e.g. "c432").
	Name string
	// Nodes, Inputs, Outputs and Gates are in creation order.
	Nodes   []*Node
	Inputs  []*Node
	Outputs []*Node
	Gates   []*Gate

	nodeByName map[string]*Node
}

// New creates an empty circuit.
func New(name string) *Circuit {
	return &Circuit{Name: name, nodeByName: map[string]*Node{}}
}

// Node returns the named net, or nil.
func (c *Circuit) Node(name string) *Node { return c.nodeByName[name] }

// ensureNode returns the named net, creating it if needed.
func (c *Circuit) ensureNode(name string) *Node {
	if n, ok := c.nodeByName[name]; ok {
		return n
	}
	n := &Node{ID: len(c.Nodes), Name: name}
	c.Nodes = append(c.Nodes, n)
	c.nodeByName[name] = n
	return n
}

// AddInput declares a primary input.
func (c *Circuit) AddInput(name string) (*Node, error) {
	if n, ok := c.nodeByName[name]; ok {
		if n.IsInput {
			return n, nil
		}
		return nil, fmt.Errorf("netlist: net %q already exists and is not an input", name)
	}
	n := c.ensureNode(name)
	n.IsInput = true
	c.Inputs = append(c.Inputs, n)
	return n, nil
}

// MarkOutput declares a primary output on an existing or future net.
func (c *Circuit) MarkOutput(name string) *Node {
	n := c.ensureNode(name)
	if !n.IsOutput {
		n.IsOutput = true
		c.Outputs = append(c.Outputs, n)
	}
	return n
}

// AddGate instantiates cellName driving net out with the given pin→net
// connections. Nets are created on demand.
func (c *Circuit) AddGate(lib *cell.Lib, cellName, out string, pins map[string]string) (*Gate, error) {
	cl, err := lib.Get(cellName)
	if err != nil {
		return nil, err
	}
	if len(pins) != len(cl.Inputs) {
		return nil, fmt.Errorf("netlist: gate %s (%s) got %d pins, want %d", out, cellName, len(pins), len(cl.Inputs))
	}
	o := c.ensureNode(out)
	if o.Driver != nil {
		return nil, fmt.Errorf("netlist: net %q already driven by %s", out, o.Driver.Name)
	}
	if o.IsInput {
		return nil, fmt.Errorf("netlist: net %q is a primary input", out)
	}
	g := &Gate{ID: len(c.Gates), Name: out, Cell: cl, Fanin: make(map[string]*Node, len(pins)), Out: o}
	for _, pin := range cl.Inputs {
		src, ok := pins[pin]
		if !ok {
			return nil, fmt.Errorf("netlist: gate %s (%s) missing pin %s", out, cellName, pin)
		}
		n := c.ensureNode(src)
		g.Fanin[pin] = n
		n.Fanout = append(n.Fanout, PinRef{Gate: g, Pin: pin})
	}
	o.Driver = g
	c.Gates = append(c.Gates, g)
	return g, nil
}

// Check validates the circuit: every non-input net is driven, every
// output exists, and the gate graph is acyclic.
func (c *Circuit) Check() error {
	for _, n := range c.Nodes {
		if !n.IsInput && n.Driver == nil {
			return fmt.Errorf("netlist: %s: net %q undriven", c.Name, n.Name)
		}
		if n.IsInput && n.Driver != nil {
			return fmt.Errorf("netlist: %s: input %q is driven", c.Name, n.Name)
		}
	}
	if len(c.Inputs) == 0 || len(c.Outputs) == 0 {
		return fmt.Errorf("netlist: %s: needs at least one input and one output", c.Name)
	}
	if _, err := c.TopoGates(); err != nil {
		return err
	}
	return nil
}

// TopoGates returns the gates in topological (fanin-first) order, or an
// error if the netlist has a combinational cycle.
func (c *Circuit) TopoGates() ([]*Gate, error) {
	indeg := make([]int, len(c.Gates))
	for _, g := range c.Gates {
		for _, pin := range g.Cell.Inputs {
			if g.Fanin[pin].Driver != nil {
				indeg[g.ID]++
			}
		}
	}
	queue := make([]*Gate, 0, len(c.Gates))
	for _, g := range c.Gates {
		if indeg[g.ID] == 0 {
			queue = append(queue, g)
		}
	}
	out := make([]*Gate, 0, len(c.Gates))
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		out = append(out, g)
		for _, ref := range g.Out.Fanout {
			indeg[ref.Gate.ID]--
			if indeg[ref.Gate.ID] == 0 {
				queue = append(queue, ref.Gate)
			}
		}
	}
	if len(out) != len(c.Gates) {
		return nil, fmt.Errorf("netlist: %s: combinational cycle detected", c.Name)
	}
	return out, nil
}

// Levels returns, for each gate ID, its logic level (1 + max level of
// driving gates; gates fed only by inputs are level 1), plus the maximum
// level (circuit depth).
func (c *Circuit) Levels() (map[int]int, int, error) {
	topo, err := c.TopoGates()
	if err != nil {
		return nil, 0, err
	}
	lv := make(map[int]int, len(topo))
	depth := 0
	for _, g := range topo {
		l := 1
		for _, pin := range g.Cell.Inputs {
			if d := g.Fanin[pin].Driver; d != nil && lv[d.ID]+1 > l {
				l = lv[d.ID] + 1
			}
		}
		lv[g.ID] = l
		if l > depth {
			depth = l
		}
	}
	return lv, depth, nil
}

// Stats summarizes a circuit.
type Stats struct {
	Name                   string
	Inputs, Outputs, Gates int
	Depth                  int
	ComplexGates           int
	MultiVectorArcs        int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() (Stats, error) {
	_, depth, err := c.Levels()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Name: c.Name, Inputs: len(c.Inputs), Outputs: len(c.Outputs),
		Gates: len(c.Gates), Depth: depth,
	}
	for _, g := range c.Gates {
		if g.Cell.IsComplex() {
			s.ComplexGates++
			for _, pin := range g.Cell.MultiVectorPins() {
				s.MultiVectorArcs += len(g.Cell.Vectors(pin))
			}
		}
	}
	return s, nil
}

// DefaultOutputLoad is the capacitance assumed on every primary output:
// two minimum inverters of the given technology.
func DefaultOutputLoad(tc *tech.Tech) float64 {
	inv := cell.Default().MustGet("INV")
	return 2 * inv.InputCap(tc, "A")
}

// LoadCap returns the total capacitance on net n under technology tc: the
// input capacitance of every fanout pin, the per-net wire load, and the
// default output load if n is a primary output.
func (c *Circuit) LoadCap(n *Node, tc *tech.Tech) float64 {
	total := tc.Cw
	for _, ref := range n.Fanout {
		total += ref.Gate.Cell.InputCap(tc, ref.Pin)
	}
	if n.IsOutput {
		total += DefaultOutputLoad(tc)
	}
	return total
}

// EvalBool computes every net value for a complete primary-input
// assignment — the plain functional simulation used to cross-check the
// technology mapper and the path engines.
func (c *Circuit) EvalBool(assign map[string]bool) (map[string]bool, error) {
	vals := make(map[string]bool, len(c.Nodes))
	for _, in := range c.Inputs {
		v, ok := assign[in.Name]
		if !ok {
			return nil, fmt.Errorf("netlist: input %q unassigned", in.Name)
		}
		vals[in.Name] = v
	}
	topo, err := c.TopoGates()
	if err != nil {
		return nil, err
	}
	for _, g := range topo {
		env := make(map[string]bool, len(g.Cell.Inputs))
		for _, pin := range g.Cell.Inputs {
			env[pin] = vals[g.Fanin[pin].Name]
		}
		vals[g.Out.Name] = expr.EvalBool(g.Cell.Function, env)
	}
	return vals, nil
}

// ExtractCone builds the transitive-fanin subcircuit of the named output
// nets: every gate and net that can reach one of them, with the original
// primary inputs that remain. The extracted circuit is self-contained
// (passes Check) and is how large designs are narrowed to one endpoint
// before an expensive path analysis.
func ExtractCone(c *Circuit, lib *cell.Lib, outputs []string) (*Circuit, error) {
	keepNet := map[string]bool{}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if keepNet[n.Name] {
			return nil
		}
		keepNet[n.Name] = true
		if n.Driver == nil {
			if !n.IsInput {
				return fmt.Errorf("netlist: cone net %q undriven", n.Name)
			}
			return nil
		}
		for _, pin := range n.Driver.Cell.Inputs {
			if err := walk(n.Driver.Fanin[pin]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range outputs {
		n := c.Node(name)
		if n == nil {
			return nil, fmt.Errorf("netlist: unknown output %q", name)
		}
		if err := walk(n); err != nil {
			return nil, err
		}
	}

	out := New(c.Name + "_cone")
	for _, in := range c.Inputs {
		if keepNet[in.Name] {
			if _, err := out.AddInput(in.Name); err != nil {
				return nil, err
			}
		}
	}
	topo, err := c.TopoGates()
	if err != nil {
		return nil, err
	}
	for _, g := range topo {
		if !keepNet[g.Out.Name] {
			continue
		}
		pins := map[string]string{}
		for _, pin := range g.Cell.Inputs {
			pins[pin] = g.Fanin[pin].Name
		}
		if _, err := out.AddGate(lib, g.Cell.Name, g.Out.Name, pins); err != nil {
			return nil, err
		}
	}
	for _, name := range outputs {
		out.MarkOutput(name)
	}
	if err := out.Check(); err != nil {
		return nil, err
	}
	return out, nil
}
