package core

import (
	"container/heap"
	"fmt"
	"math"

	"tpsta/internal/charlib"
	"tpsta/internal/netlist"
	"tpsta/internal/polyfit"
)

// KWorst finds the k slowest true paths with branch-and-bound pruning:
// a partial path is abandoned as soon as an optimistic upper bound on its
// completed delay cannot beat the k-th best path found so far. This is
// the "programmed to find efficiently the N true paths" mode the paper's
// single-pass design enables — no two-step structural list whose
// required length is unknown in advance.
//
// stalint:deterministic the reported k-worst set and its order must not
// depend on worker count or heap timing (TestKWorstParallelMatchesSerial)
func (e *Engine) KWorst(k int) (*Result, error) {
	if err := e.checkInputs(); err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 1
	}
	// Workers own forked pruners (shared read-only bound tables, private
	// k-best heaps). The union of the worker heaps always contains the
	// canonical global k-best — pruning only ever discards paths whose
	// optimistic bound falls strictly below a delay that k already-kept
	// paths reach, an argument independent of which worker kept them —
	// so deduping and sorting the union and keeping the first k
	// reproduces the same path set for any pool size and any steal
	// schedule.
	return e.poolSearch(len(e.Circuit.Inputs), k, "kworst", runInputUnit)
}

// pruner holds the bound tables and the current k-best heap.
//
// stalint:shared — the bound tables (arcUB, suffixUB) are computed in
// newPruner and then shared read-only across forked workers; the heap is
// fork-private. The sharedstate analyzer flags writes to either outside
// constructor scope so the sharing contract stays visible.
type pruner struct {
	eng      *Engine
	k        int
	arcUB    []float64 // per gate ID: max delay of any arc through the gate
	suffixUB []float64 // per node ID: max remaining delay to any output
	heap     pathHeap
}

func newPruner(e *Engine, k int) (*pruner, error) {
	p := &pruner{eng: e, k: k}
	c := e.Circuit
	p.arcUB = make([]float64, len(c.Gates))
	for _, g := range c.Gates {
		ub, err := p.gateUB(g)
		if err != nil {
			return nil, err
		}
		p.arcUB[g.ID] = ub
	}
	topo, err := c.TopoGates()
	if err != nil {
		return nil, err
	}
	p.suffixUB = make([]float64, len(c.Nodes))
	for i := range p.suffixUB {
		p.suffixUB[i] = math.Inf(-1) // dead ends prune themselves
	}
	// Reverse-topological DP over gates; outputs terminate with 0.
	for _, n := range c.Nodes {
		if n.IsOutput {
			p.suffixUB[n.ID] = 0
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		g := topo[i]
		down := p.suffixUB[g.Out.ID]
		for _, pin := range g.Cell.Inputs {
			in := g.Fanin[pin]
			if cand := p.arcUB[g.ID] + down; cand > p.suffixUB[in.ID] {
				p.suffixUB[in.ID] = cand
			}
		}
	}
	return p, nil
}

// gateUB returns an optimistic (large) delay for any traversal of g: the
// worst characterized arc at the gate's actual load and the slowest
// characterized input slew, evaluated on the run-specialized kernels
// (bit-identical to the full models, so the bound tables — and with
// them the pruning decisions — match the unspecialized build exactly).
// Without a library, every traversal counts 1 (K-worst degenerates to
// K-longest by gate count).
func (p *pruner) gateUB(g *netlist.Gate) (float64, error) {
	e := p.eng
	if e.Lib == nil {
		return 1, nil
	}
	kt, err := e.kernels()
	if err != nil {
		return 0, err
	}
	if err := kt.foErr[g.ID]; err != nil {
		return 0, err
	}
	slowest := e.Lib.Grid.Tin[len(e.Lib.Grid.Tin)-1]
	// The gate's slot block enumerates its (pin, case, edge) arcs in
	// library order, so the lane fill reports the first uncharacterized
	// arc with charlib.Library.GateDelay's message.
	base := kt.slotBase[g.ID]
	off := kt.pinOff[g.ID]
	n := int(off[len(g.Cell.Inputs)])
	sc := &e.ksc
	sc.ensure(n, kt.pool)
	lane := kt.pool.LaneLen()
	li := 0
	for pi, pin := range g.Cell.Inputs {
		for rel := off[pi]; rel < off[pi+1]; rel++ {
			si := base + rel
			did := kt.delayID[si]
			if did < 0 {
				vecs := g.Cell.Vectors(pin)
				return 0, fmt.Errorf("charlib: no polynomial arc %s",
					charlib.PolyKey(g.Cell.Name, pin, vecs[int(rel-off[pi])/2].Key(), (rel-off[pi])%2 == 1))
			}
			sc.ids[li] = did
			kt.pool.PowLane(did, kt.fo[g.ID], slowest, sc.pow[li*lane:])
			li++
		}
	}
	if cap(e.scratch) < n {
		e.scratch = make([]float64, n)
	}
	out := e.scratch[:n]
	kt.pool.SumBatch(sc.ids, sc.pow, out)
	kt.batchLanes.Add(int64(n))
	kt.batchRounds.Add((int64(n) + polyfit.BatchWidth - 1) / polyfit.BatchWidth)
	worst := 0.0
	for _, d := range out {
		if d > worst {
			worst = d
		}
	}
	// 15 % headroom keeps the bound admissible against slew-chaining
	// effects the per-arc maximum does not capture.
	return worst * 1.15, nil
}

// fork returns a pruner sharing the (read-only) bound tables with its
// parent but owning a fresh heap — one per parallel worker, so the
// k-best state needs no locking. The union of the forks' heaps always
// contains the canonical global k-best: the bound only discards paths
// strictly below a delay that k already-found paths reach.
func (p *pruner) fork() *pruner {
	f := *p
	// stalint:ignore sharedstate the heap is fork-private by construction; only the bound tables are shared
	f.heap = nil
	return &f
}

// threshold returns the delay a new path must beat (-inf while the heap
// is not full).
func (p *pruner) threshold() float64 {
	if len(p.heap) < p.k {
		return math.Inf(-1)
	}
	return p.heap[0].WorstDelay()
}

// viable reports whether extending the current partial path through gate
// g could still reach the k-best set. Only bounds strictly below the
// threshold are pruned: a path tying the threshold delay exactly may
// still enter the canonical k-best through the course/variant
// tie-break, and pruning it would make the kept set depend on
// discovery order.
func (p *pruner) viable(s *searcher, g *netlist.Gate) bool {
	th := p.threshold()
	if math.IsInf(th, -1) {
		return !math.IsInf(p.suffixUB[g.Out.ID], -1) // still prune dead ends
	}
	partial := 0.0
	for _, a := range s.arcs {
		partial += p.arcUB[a.Gate.ID]
	}
	return partial+p.arcUB[g.ID]+p.suffixUB[g.Out.ID] >= th
}

// add offers a completed path to the k-best heap. Replacement follows
// the canonical total order (pathBetter), so the kept set is the same
// k paths regardless of the order completions arrive in.
func (p *pruner) add(tp *TruePath) {
	if len(p.heap) < p.k {
		heap.Push(&p.heap, tp)
		return
	}
	if pathBetter(tp, p.heap[0]) {
		// stalint:ignore sharedstate the heap is fork-private; each worker mutates only its own
		p.heap[0] = tp
		heap.Fix(&p.heap, 0)
	}
}

// all returns the kept paths (unsorted).
func (p *pruner) all() []*TruePath { return append([]*TruePath(nil), p.heap...) }

// pathHeap is a min-heap under the canonical path order: the root is
// the weakest kept path.
type pathHeap []*TruePath

func (h pathHeap) Len() int            { return len(h) }
func (h pathHeap) Less(i, j int) bool  { return pathBetter(h[j], h[i]) }
func (h pathHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x interface{}) { *h = append(*h, x.(*TruePath)) }
func (h *pathHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
