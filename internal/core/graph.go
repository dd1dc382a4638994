package core

import (
	"fmt"

	"tpsta/internal/cell"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
)

// The search graph: the circuit compiled once per engine into flat
// int32 tables, so the hot loops of the search — forward implication
// (assign, evalGate), justification (implied, feasibleCubes,
// cubeFeasible, applyCube), decision application (assertVector) and
// the DFS itself (extendFrom, tryArc, the K-worst candidate check) —
// index arrays instead of chasing Node → PinRef → Gate → Cell
// pointers and looking pins up by name. Names come back only when a
// fresh variant is recorded (emit) and at the API edge.
//
// Every table keeps the order of the netlist structure it compiles —
// fanout refs in Node.Fanout order (a gate fed on two pins listed
// twice), fanins and side literals in cell-input order, vectors in Case
// order, cubes and their literals in cell.JustifyCubes order — so the
// search visits exactly the same decisions in the same order as over
// the netlist, and its results are byte-identical (DESIGN.md §17).

// maxPins bounds the input pins of a cell (cell/eval.go: a cell's table
// holds 9^pins Values); the gate records reserve that many fanin slots.
const maxPins = 4

// lit is one literal of a cell's vector or cube: the net in fanin slot
// slot of the gate (graphGate.fanin) must hold val. Literals name slots,
// not nets, so the gates of one cell share them.
type lit struct {
	slot uint8
	val  bool
}

// graphVec is one compiled sensitization vector of a (cell, pin).
type graphVec struct {
	// multi marks a pin with several vectors: its side values are
	// asserted steady (strict), as for every vector under Options.Robust,
	// and ComplexOnly records only paths through such a pin.
	multi bool
	// edge is the output edge per input edge (index 0 falling, 1
	// rising): 1 the output rises, 0 it falls, -1 the vector does not
	// propagate the edge (cell.Cell.OutputEdge).
	edge [2]int8
	// side0 and side1 bound the vector's side literals in
	// searchGraph.sides: every other input pin of the cell, in
	// cell-input order, with the level the vector requires.
	side0, side1 int32
}

// arcRef names one arc of a path inside the engine: the gate, the entry
// pin's index in the cell's inputs and the vector's index in Case order
// (its Case is vec+1). The DFS stack and donated prefixes hold arcRefs;
// TruePath.Arcs is built from them only for a fresh variant.
type arcRef struct {
	gate     int32
	pin, vec uint8
}

// graphGate is one gate's record: its fanins, output and cell,
// together so an evaluation touches one record before the values it
// reads.
//
// A cell with fewer than maxPins inputs has its fanins right-aligned
// and the leading slots on the pad net, which holds V0 (Value 0) in
// every state: folding a 0 into an empty row leaves it 0, so every
// evaluation folds exactly maxPins Values, with no branch on the pin
// count, and still reads the row of the cell's own table.
type graphGate struct {
	fanin [maxPins]int32 // pad nets, then the nets on the cell's input pins in cell-input order
	out   int32          // the driven net
	cell  int32          // index of the gate's cell in searchGraph.cells and tables
}

// graphCell is one distinct cell's compiled data, shared by every gate
// of that cell.
type graphCell struct {
	first int32 // fanin slot of the cell's first input pin: maxPins - inputs
	// vecOff bounds the vectors of input pin p: vector IDs
	// vecOff[p]..vecOff[p+1]-1, in Case order.
	vecOff [maxPins + 1]int32
	// cubeOff bounds the justification cubes for a required output
	// value: cube IDs cubeOff[0]..cubeOff[1]-1 justify 0,
	// cubeOff[1]..cubeOff[2]-1 justify 1.
	cubeOff [3]int32
	// vectors holds the cell's own vectors per input pin, for
	// TruePath.Arcs.
	vectors [maxPins][]cell.Vector
}

// searchGraph is an engine's circuit compiled for the search. Node and
// gate IDs index it directly; what depends only on a gate's cell
// (vectors, cubes, the Value table) is compiled once per distinct cell.
//
// stalint:shared — built by newSearchGraph before any search (warmShared
// and cornerEngines run it before the fan-out) and read-only
// afterwards, shared by every worker engine's shallow copy and every
// corner engine, like the kernel table. The sharedstate analyzer flags
// any write outside the constructor.
type searchGraph struct {
	// Per node.
	foOff  []int32 // fanout refs of node n: foGate/foPin[foOff[n]:foOff[n+1]]
	foGate []int32 // fanout gate IDs, in Node.Fanout order
	foPin  []uint8 // entry pin index of each fanout ref
	driver []int32 // driving gate ID, -1 for a primary input
	output []bool  // primary output flag
	inputs []int32 // primary input node IDs, in Circuit.Inputs order
	pad    int32   // the pad net, one past the circuit's nodes (graphGate)

	gates []graphGate // per gate

	// Per distinct cell.
	cells  []graphCell
	tables [][]logic.Value // the cell's output per Fold row (cell.Cell.Table), shared with it
	vecs   []graphVec      // every compiled vector, by ID
	sides  []lit           // side literals of every vector
	litOff []int32         // literals of cube c: lits[litOff[c]:litOff[c+1]]
	lits   []lit           // cube literals
}

// newSearchGraph compiles c. It and newGraphCell are the one place the
// search reads Gate.Fanin, Cell.Vectors, Vector.Side and the cells'
// justification cubes; the caller has already rejected a cyclic
// circuit. A cell with more than maxPins inputs is an error.
//
// stalint:coldpath one compilation per engine, amortized over the search
func newSearchGraph(c *netlist.Circuit) (*searchGraph, error) {
	nn := len(c.Nodes)
	gr := &searchGraph{
		foOff:  make([]int32, nn+1),
		driver: make([]int32, nn),
		output: make([]bool, nn),
		inputs: make([]int32, len(c.Inputs)),
		pad:    int32(nn),
		gates:  make([]graphGate, len(c.Gates)),
	}
	for _, n := range c.Nodes {
		gr.foOff[n.ID+1] = gr.foOff[n.ID] + int32(len(n.Fanout))
		for _, ref := range n.Fanout {
			gr.foGate = append(gr.foGate, int32(ref.Gate.ID))
			gr.foPin = append(gr.foPin, uint8(pinIndex(ref.Gate.Cell.Inputs, ref.Pin)))
		}
		gr.driver[n.ID] = -1
		if n.Driver != nil {
			gr.driver[n.ID] = int32(n.Driver.ID)
		}
		gr.output[n.ID] = n.IsOutput
	}
	for i, in := range c.Inputs {
		gr.inputs[i] = int32(in.ID)
	}
	cells := map[*cell.Cell]int32{}
	for _, g := range c.Gates {
		cl := g.Cell
		ci, ok := cells[cl]
		if !ok {
			if len(cl.Inputs) > maxPins {
				return nil, fmt.Errorf("core: gate %s: cell %s has %d inputs, the search handles at most %d",
					g.Name, cl.Name, len(cl.Inputs), maxPins)
			}
			ci = int32(len(gr.cells))
			gr.cells = append(gr.cells, gr.newGraphCell(cl))
			cells[cl] = ci
		}
		gc := &gr.cells[ci]
		gg := &gr.gates[g.ID]
		gg.out, gg.cell = int32(g.Out.ID), ci
		for i := range gg.fanin {
			gg.fanin[i] = gr.pad
		}
		for pi, pin := range cl.Inputs {
			gg.fanin[int(gc.first)+pi] = int32(g.Fanin[pin].ID)
		}
	}
	gr.litOff = append(gr.litOff, int32(len(gr.lits)))
	return gr, nil
}

// newGraphCell appends cl's Value table, vectors and justification
// cubes to the graph under construction (newSearchGraph is its only
// caller) and returns its block. Literals name the fanin slots of cl's
// pins, which start at maxPins - len(cl.Inputs).
//
// stalint:coldpath once per distinct cell of the circuit
func (gr *searchGraph) newGraphCell(cl *cell.Cell) graphCell {
	gc := graphCell{first: int32(maxPins - len(cl.Inputs))}
	gr.tables = append(gr.tables, cl.Table())
	slot := func(pi int) uint8 { return uint8(int(gc.first) + pi) }
	for pi, pin := range cl.Inputs {
		vecs := cl.Vectors(pin)
		gc.vecOff[pi] = int32(len(gr.vecs))
		gc.vectors[pi] = vecs
		for _, v := range vecs {
			gv := graphVec{multi: len(vecs) > 1, side0: int32(len(gr.sides))}
			for ei, rising := range [2]bool{false, true} {
				gv.edge[ei] = -1
				if outRising, ok := cl.OutputEdge(v, rising); ok {
					gv.edge[ei] = int8(edgeIndex(outRising))
				}
			}
			for si, side := range cl.Inputs {
				if si != pi {
					gr.sides = append(gr.sides, lit{slot(si), v.Side[side]})
				}
			}
			gv.side1 = int32(len(gr.sides))
			gr.vecs = append(gr.vecs, gv)
		}
	}
	for pi := len(cl.Inputs); pi <= maxPins; pi++ {
		gc.vecOff[pi] = int32(len(gr.vecs))
	}
	for vi, val := range [2]bool{false, true} {
		gc.cubeOff[vi] = int32(len(gr.litOff))
		for _, cb := range cell.JustifyCubes(cl, val) {
			gr.litOff = append(gr.litOff, int32(len(gr.lits)))
			for _, l := range cb {
				gr.lits = append(gr.lits, lit{slot(l.Index), l.Val})
			}
		}
	}
	gc.cubeOff[2] = int32(len(gr.litOff))
	return gc
}

// fanout returns the fanout refs of node n: the gate IDs and, in
// parallel, their entry pins.
func (gr *searchGraph) fanout(n int32) ([]int32, []uint8) {
	lo, hi := gr.foOff[n], gr.foOff[n+1]
	return gr.foGate[lo:hi], gr.foPin[lo:hi]
}

// faninOf returns the fanin node IDs of gate g in cell-input order.
func (gr *searchGraph) faninOf(g int32) []int32 {
	gg := &gr.gates[g]
	return gg.fanin[gr.cells[gg.cell].first:]
}

// vecRange returns the vector IDs of gate g entered on pin pi: lo..hi-1,
// in Case order.
func (gr *searchGraph) vecRange(g int32, pi uint8) (lo, hi int32) {
	gc := &gr.cells[gr.gates[g].cell]
	return gc.vecOff[pi], gc.vecOff[pi+1]
}

// vecID returns the vector ID of arc a.
func (gr *searchGraph) vecID(a arcRef) int32 {
	return gr.cells[gr.gates[a.gate].cell].vecOff[a.pin] + int32(a.vec)
}

// cubes returns the justification-cube IDs of gate g for the required
// output value val: lo..hi-1, in cell.JustifyCubes order.
func (gr *searchGraph) cubes(g int32, val bool) (lo, hi int32) {
	gc := &gr.cells[gr.gates[g].cell]
	if val {
		return gc.cubeOff[1], gc.cubeOff[2]
	}
	return gc.cubeOff[0], gc.cubeOff[1]
}

// cubeLits returns the literals of cube cb.
func (gr *searchGraph) cubeLits(cb int32) []lit {
	return gr.lits[gr.litOff[cb]:gr.litOff[cb+1]]
}

// arc rebuilds the name-keyed Arc of a, an arc of c, for a recorded
// path.
func (gr *searchGraph) arc(c *netlist.Circuit, a arcRef) Arc {
	g := c.Gates[a.gate]
	return Arc{Gate: g, Pin: g.Cell.Inputs[a.pin],
		Vec: gr.cells[gr.gates[a.gate].cell].vectors[a.pin][a.vec]}
}
