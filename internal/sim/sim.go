// Package sim provides gate-level circuit simulation used to *verify*
// results of the path engines, standing in for the per-path verification
// simulations of the paper's Section V:
//
//   - Verify performs floating-mode functional verification of a reported
//     path under an input cube (nine-valued evaluation: side inputs may be
//     left undetermined and verification still proves the transition
//     propagates for every filling);
//   - TimedSim is an event-driven timing simulation with caller-supplied
//     per-arc delays, returning transition arrival times per net.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"tpsta/internal/cell"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
)

// InputCube assigns each primary input its settled (post-event) level —
// T0/T1 — or leaves it undetermined (TX). The pre-event state is
// unconstrained (floating mode); the transition input is given
// separately.
type InputCube map[string]logic.Trit

// Names returns the cube's input names in ascending order, the order
// every rendering and sort key of a cube uses.
func (c InputCube) Names() []string {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the cube as space-separated name=level pairs in
// ascending name order, such as "a=1 b=X".
func (c InputCube) String() string {
	var b strings.Builder
	for i, n := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(c[n].String())
	}
	return b.String()
}

// Verify checks floating-mode static sensitization of a reported path: a
// transition (rising if rising) launched at input start must propagate
// along exactly the given node sequence when the other inputs settle at
// their cube levels. At every traversed gate the side inputs must settle
// at levels that sensitize the on-path pin, and every path node must
// settle at the expected polarity without being pinned there from the
// start. path[0] must be start and path[len-1] a primary output. A nil
// error means the path is a true path for this cube (for every filling
// of the undetermined inputs and pre-event states).
func Verify(c *netlist.Circuit, path []string, start string, rising bool, cube InputCube) error {
	if len(path) < 2 {
		return fmt.Errorf("sim: path too short")
	}
	if path[0] != start {
		return fmt.Errorf("sim: path starts at %s, transition at %s", path[0], start)
	}
	vals := make(map[string]logic.Value, len(c.Nodes))
	for _, in := range c.Inputs {
		if in.Name == start {
			if rising {
				vals[in.Name] = logic.VR
			} else {
				vals[in.Name] = logic.VF
			}
			continue
		}
		vals[in.Name] = logic.FinalOf(cube[in.Name])
	}
	if _, ok := vals[start]; !ok {
		return fmt.Errorf("sim: %s is not a primary input", start)
	}
	topo, err := c.TopoGates()
	if err != nil {
		return err
	}
	for _, g := range topo {
		env := make(map[string]logic.Value, len(g.Cell.Inputs))
		for _, pin := range g.Cell.Inputs {
			env[pin] = vals[g.Fanin[pin].Name]
		}
		vals[g.Out.Name] = g.Cell.Eval(env)
	}

	pol := rising
	for i, name := range path {
		n := c.Node(name)
		if n == nil {
			return fmt.Errorf("sim: unknown path node %s", name)
		}
		v, ok := vals[name]
		if !ok {
			return fmt.Errorf("sim: no value computed for %s", name)
		}
		want := logic.T0
		if pol {
			want = logic.T1
		}
		if v.Final() != want {
			return fmt.Errorf("sim: path node %s settles at %s, expected %s", name, v.Final(), want)
		}
		if v.Initial() == want {
			return fmt.Errorf("sim: path node %s already holds %s before the event", name, want)
		}
		if i+1 == len(path) {
			break
		}
		next := c.Node(path[i+1])
		if next == nil || next.Driver == nil {
			return fmt.Errorf("sim: path node %s missing or undriven", path[i+1])
		}
		g := next.Driver
		pin := g.PinOf(n)
		if pin == "" {
			return fmt.Errorf("sim: %s does not feed %s", name, path[i+1])
		}
		// The settled side levels must sensitize the on-path pin.
		side := map[string]bool{}
		for _, p := range g.Cell.Inputs {
			if p == pin {
				continue
			}
			sv := vals[g.Fanin[p].Name]
			switch sv.Final() {
			case logic.T1:
				side[p] = true
			case logic.T0:
				side[p] = false
			default:
				return fmt.Errorf("sim: side input %s of gate %s undetermined", g.Fanin[p].Name, g.Name)
			}
		}
		vec := cell.Vector{Pin: pin, Side: side}
		nextPol, ok := g.Cell.OutputEdge(vec, pol)
		if !ok {
			return fmt.Errorf("sim: side values at gate %s block the transition into %s", g.Name, path[i+1])
		}
		pol = nextPol
	}
	last := c.Node(path[len(path)-1])
	if !last.IsOutput {
		return fmt.Errorf("sim: path ends at %s, which is not a primary output", last.Name)
	}
	return nil
}

// DelayFn supplies the delay of one gate traversal: gate g, transition
// entering on pin with direction inputRising, leaving with direction
// outputRising.
type DelayFn func(g *netlist.Gate, pin string, inputRising, outputRising bool) float64

// UnitDelay assigns every traversal delay 1.0 — handy for level-style
// checks in tests.
func UnitDelay(*netlist.Gate, string, bool, bool) float64 { return 1 }

// Event is one value change observed during timed simulation.
type Event struct {
	Time   float64
	Net    string
	Rising bool
}

// TimedResult reports an event-driven run.
type TimedResult struct {
	// Arrival maps net name to the time of its (last) transition. Nets
	// that never switch are absent.
	Arrival map[string]float64
	// Events lists every value change in time order.
	Events []Event
}

// eventItem is the priority-queue payload.
type eventItem struct {
	time   float64
	seq    int // tie-break for determinism
	net    *netlist.Node
	rising bool
}

type eventQueue []eventItem

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	// stalint:ignore floatcmp event order must be an exact total order
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(eventItem)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// TimedSim launches a transition on input start at t=0 with all other
// inputs at their cube levels (undetermined inputs are filled with 0 —
// safe after a successful Verify, since floating-mode evaluation already
// proved propagation for every filling) and propagates events through the
// circuit with per-arc delays from delay. It returns per-net arrival
// times.
func TimedSim(c *netlist.Circuit, start string, rising bool, cube InputCube, delay DelayFn) (*TimedResult, error) {
	// Initial stable state.
	init := make(map[string]bool, len(c.Inputs))
	for _, in := range c.Inputs {
		switch {
		case in.Name == start:
			init[in.Name] = !rising
		case cube[in.Name] == logic.T1:
			init[in.Name] = true
		default:
			init[in.Name] = false
		}
	}
	vals, err := c.EvalBool(init)
	if err != nil {
		return nil, err
	}
	startNode := c.Node(start)
	if startNode == nil || !startNode.IsInput {
		return nil, fmt.Errorf("sim: %s is not a primary input", start)
	}

	res := &TimedResult{Arrival: map[string]float64{}}
	var q eventQueue
	seq := 0
	push := func(t float64, n *netlist.Node, rising bool) {
		seq++
		heap.Push(&q, eventItem{t, seq, n, rising})
	}
	push(0, startNode, rising)

	guard := 0
	for q.Len() > 0 {
		guard++
		if guard > 200*len(c.Nodes)+1000 {
			return nil, fmt.Errorf("sim: event storm (oscillation?) in %s", c.Name)
		}
		it := heap.Pop(&q).(eventItem)
		cur := vals[it.net.Name]
		want := it.rising
		if cur == want {
			continue // glitch suppressed / already there
		}
		vals[it.net.Name] = want
		res.Arrival[it.net.Name] = it.time
		res.Events = append(res.Events, Event{it.time, it.net.Name, want})
		for _, ref := range it.net.Fanout {
			g := ref.Gate
			env := make(map[string]bool, len(g.Cell.Inputs))
			for _, pin := range g.Cell.Inputs {
				env[pin] = vals[g.Fanin[pin].Name]
			}
			newOut := evalBool(g, env)
			if newOut != vals[g.Out.Name] {
				d := delay(g, ref.Pin, want, newOut)
				if d <= 0 {
					return nil, fmt.Errorf("sim: non-positive delay on %s/%s", g.Name, ref.Pin)
				}
				push(it.time+d, g.Out, newOut)
			}
		}
	}
	sort.Slice(res.Events, func(i, j int) bool { return res.Events[i].Time < res.Events[j].Time })
	return res, nil
}

func evalBool(g *netlist.Gate, env map[string]bool) bool {
	lenv := make(map[string]logic.Value, len(env))
	for k, v := range env {
		if v {
			lenv[k] = logic.V1
		} else {
			lenv[k] = logic.V0
		}
	}
	return g.Cell.Eval(lenv) == logic.V1
}
