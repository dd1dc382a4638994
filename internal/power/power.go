// Package power estimates dynamic switching power from vector-driven
// activity simulation — the other consumer of the timing substrate a
// standard-cell flow needs. A random (or user-supplied) vector sequence
// is run through full-timing event-driven simulation with polynomial
// arc delays; every net's transition count (including glitches, which a
// zero-delay functional simulation would miss) becomes its switching
// activity, and dynamic power follows as
//
//	P = Σ_nets α(net) · C(net) · VDD² · f
//
// with C the net's loading from the netlist and f the vector rate.
package power

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"tpsta/internal/charlib"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

// Options tune the estimation.
type Options struct {
	// Vectors is the number of random input vectors applied (default
	// 200).
	Vectors int
	// Seed makes runs reproducible (default 1).
	Seed int64
	// Frequency is the vector application rate in Hz (default 100 MHz).
	Frequency float64
	// InputSlew feeds the delay queries (default 40 ps).
	InputSlew float64
	// Temp/VDD operating point (defaults 25 °C, nominal).
	Temp, VDD float64
}

func (o Options) withDefaults(tc *tech.Tech) Options {
	if o.Vectors <= 0 {
		o.Vectors = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Frequency <= 0 {
		o.Frequency = 100e6
	}
	if o.InputSlew <= 0 {
		o.InputSlew = 40e-12
	}
	if num.IsZero(o.Temp) {
		o.Temp = 25
	}
	if num.IsZero(o.VDD) {
		o.VDD = tc.VDD
	}
	return o
}

// NetActivity is one net's result.
type NetActivity struct {
	Net string
	// Toggles is the total transition count over the run.
	Toggles int
	// Activity is toggles per applied vector.
	Activity float64
	// Glitches counts transitions beyond the final-value change of each
	// vector (hazard activity a zero-delay simulation misses).
	Glitches int
	// Cap is the net's switched capacitance in farads.
	Cap float64
	// Power is the net's dynamic power in watts.
	Power float64
}

// Report is the circuit-level result.
type Report struct {
	// Total dynamic power in watts.
	Total float64
	// ByNet is sorted by power descending.
	ByNet []NetActivity
	// GlitchFraction is the share of all toggles that were glitches.
	GlitchFraction float64
	// Vectors applied.
	Vectors int
}

// Estimate runs the analysis. The library supplies per-arc delays (the
// worst vector per arc, matching the block analyzer's abstraction).
func Estimate(c *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, opts Options) (*Report, error) {
	opts = opts.withDefaults(tc)
	rng := rand.New(rand.NewSource(opts.Seed))

	// Pre-resolve per-(gate,pin) delays at the fixed slew.
	topo, err := c.TopoGates()
	if err != nil {
		return nil, err
	}
	delays := map[arcKey]float64{}
	for _, g := range topo {
		load := c.LoadCap(g.Out, tc)
		fo, err := lib.Fo(g.Cell.Name, load)
		if err != nil {
			return nil, err
		}
		for _, pin := range g.Cell.Inputs {
			worst, _, err := lib.WorstGateDelay(g.Cell, pin, fo, opts.InputSlew, opts.Temp, opts.VDD)
			if err != nil {
				return nil, err
			}
			if worst <= 0 {
				worst = 1e-12 // untestable arcs still need a causal delay
			}
			delays[arcKey{g.ID, pin}] = worst
		}
	}

	// State and counters.
	vals := make(map[string]bool, len(c.Nodes))
	toggles := make(map[string]int, len(c.Nodes))
	glitches := make(map[string]int, len(c.Nodes))

	// Initial vector, settled functionally.
	assign := map[string]bool{}
	for _, in := range c.Inputs {
		assign[in.Name] = rng.Intn(2) == 1
	}
	settled, err := c.EvalBool(assign)
	if err != nil {
		return nil, err
	}
	for k, v := range settled {
		vals[k] = v
	}

	for v := 0; v < opts.Vectors; v++ {
		// Flip a random non-empty subset of inputs.
		changed := false
		for _, in := range c.Inputs {
			if rng.Intn(4) == 0 {
				assign[in.Name] = !assign[in.Name]
				changed = true
			}
		}
		if !changed {
			in := c.Inputs[rng.Intn(len(c.Inputs))]
			assign[in.Name] = !assign[in.Name]
		}
		if err := simulateVector(c, assign, vals, delays, toggles, glitches); err != nil {
			return nil, err
		}
	}

	rep := &Report{Vectors: opts.Vectors}
	totalToggles, totalGlitches := 0, 0
	for _, n := range c.Nodes {
		t := toggles[n.Name]
		if t == 0 {
			continue
		}
		cap := c.LoadCap(n, tc)
		p := float64(t) / float64(opts.Vectors) * cap * opts.VDD * opts.VDD * opts.Frequency
		rep.ByNet = append(rep.ByNet, NetActivity{
			Net:      n.Name,
			Toggles:  t,
			Activity: float64(t) / float64(opts.Vectors),
			Glitches: glitches[n.Name],
			Cap:      cap,
			Power:    p,
		})
		rep.Total += p
		totalToggles += t
		totalGlitches += glitches[n.Name]
	}
	if totalToggles > 0 {
		rep.GlitchFraction = float64(totalGlitches) / float64(totalToggles)
	}
	sort.Slice(rep.ByNet, func(i, j int) bool {
		// stalint:ignore floatcmp sort comparator must be an exact total order
		if rep.ByNet[i].Power != rep.ByNet[j].Power {
			return rep.ByNet[i].Power > rep.ByNet[j].Power
		}
		return rep.ByNet[i].Net < rep.ByNet[j].Net
	})
	return rep, nil
}

// arcKey addresses one (gate, pin) timing arc.
type arcKey struct {
	gate int
	pin  string
}

// event-driven full-timing simulation of one input-vector application.
type pevent struct {
	time float64
	seq  int
	node *netlist.Node
	val  bool
}

type peventQueue []pevent

func (q peventQueue) Len() int { return len(q) }
func (q peventQueue) Less(i, j int) bool {
	// stalint:ignore floatcmp event order must be an exact total order
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q peventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *peventQueue) Push(x interface{}) { *q = append(*q, x.(pevent)) }
func (q *peventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func simulateVector(c *netlist.Circuit, assign map[string]bool, vals map[string]bool,
	delays map[arcKey]float64, toggles, glitches map[string]int) error {

	before := make(map[string]bool, len(vals))
	for k, v := range vals {
		before[k] = v
	}
	perVec := map[string]int{}

	var q peventQueue
	seq := 0
	push := func(t float64, n *netlist.Node, v bool) {
		seq++
		heap.Push(&q, pevent{t, seq, n, v})
	}
	for _, in := range c.Inputs {
		if vals[in.Name] != assign[in.Name] {
			push(0, in, assign[in.Name])
		}
	}
	guard := 0
	for q.Len() > 0 {
		guard++
		if guard > 1000*len(c.Nodes)+10000 {
			return fmt.Errorf("power: event storm in %s", c.Name)
		}
		ev := heap.Pop(&q).(pevent)
		if vals[ev.node.Name] == ev.val {
			continue
		}
		vals[ev.node.Name] = ev.val
		perVec[ev.node.Name]++
		for _, ref := range ev.node.Fanout {
			g := ref.Gate
			env := make(map[string]logic.Value, len(g.Cell.Inputs))
			for _, pin := range g.Cell.Inputs {
				if vals[g.Fanin[pin].Name] {
					env[pin] = logic.V1
				} else {
					env[pin] = logic.V0
				}
			}
			newOut := g.Cell.Eval(env) == logic.V1
			if newOut != vals[g.Out.Name] {
				push(ev.time+delays[arcKey{g.ID, ref.Pin}], g.Out, newOut)
			}
		}
	}

	// Fold this vector's activity into the global counters. A net that
	// ended where it started glitched on every toggle it made; one that
	// changed carries exactly one functional transition, the rest are
	// hazard (glitch) activity.
	for name, n := range perVec {
		toggles[name] += n
		functional := 0
		if vals[name] != before[name] {
			functional = 1
		}
		if n > functional {
			glitches[name] += n - functional
		}
	}
	return nil
}
