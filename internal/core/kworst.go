package core

import (
	"container/heap"
	"fmt"
	"math"
	"sync/atomic"

	"tpsta/internal/charlib"
	"tpsta/internal/netlist"
	"tpsta/internal/polyfit"
)

// KWorst finds the k slowest true paths with branch-and-bound pruning:
// a candidate arc is abandoned before it is tried when the exact delay
// of the path through it, plus an upper bound on the rest of any path
// from its output, falls strictly below the k-th best path found so
// far. This is the "programmed to find efficiently the N true paths"
// mode the paper's single-pass design enables — no two-step structural
// list whose required length is unknown in advance.
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
	// Workers own forked pruners (a shared read-only bound table, a
	// shared k-th-best threshold, private k-best heaps). The union of the worker
	// heaps always contains the canonical global k-best — pruning only
	// ever discards paths whose delay falls strictly below a delay that k
	// already-kept paths reach, an argument independent of which worker
	// kept them — so deduping and sorting the union and keeping the
	// first k reproduces the same path set for any pool size and any
	// steal schedule.
	return e.poolSearch(len(e.Circuit.Inputs), k, "kworst", runInputUnit)
}

// pruner holds the bound table, the shared threshold and the current
// k-best heap.
//
// stalint:shared — kt and suffixUB are set in newPruner and then shared
// read-only across forked workers; kth, the k-th-best threshold of the
// corner, is shared by every fork and changes only through atomic
// compare-and-swap (raise); the heap is fork-private. The sharedstate
// analyzer flags writes to any of them outside constructor scope so
// the sharing contract stays visible.
type pruner struct {
	kt       *kernelTable   // the corner's delay kernels; nil without a library
	k        int            // paths kept
	suffixUB []float64      // per node ID: max remaining delay to any output
	kth      *atomic.Uint64 // float64 bits of the shared k-th-best delay
	heap     pathHeap
}

func newPruner(e *Engine, k int) (*pruner, error) {
	p := &pruner{k: k, kth: &atomic.Uint64{}}
	p.kth.Store(math.Float64bits(math.Inf(-1)))
	if e.Lib != nil {
		kt, err := e.kernels()
		if err != nil {
			return nil, err
		}
		p.kt = kt
	}
	c := e.Circuit
	gr, err := e.searchGraph()
	if err != nil {
		return nil, err
	}
	// arcUB bounds every traversal of a gate; it is the input of
	// suffixUB and nothing else, since the traversed part of a path is
	// bounded by its exact arrival.
	arcUB := make([]float64, len(c.Gates))
	for _, g := range c.Gates {
		ub, err := e.gateUB(g)
		if err != nil {
			return nil, err
		}
		arcUB[g.ID] = ub
	}
	topo, err := c.TopoGates()
	if err != nil {
		return nil, err
	}
	p.suffixUB = make([]float64, len(c.Nodes))
	for i := range p.suffixUB {
		p.suffixUB[i] = math.Inf(-1) // a dead end: no output downstream (viable)
	}
	// Reverse-topological DP over gates; outputs terminate with 0.
	for _, n := range c.Nodes {
		if n.IsOutput {
			p.suffixUB[n.ID] = 0
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		g := int32(topo[i].ID)
		down := p.suffixUB[gr.gates[g].out]
		for _, in := range gr.faninOf(g) {
			if cand := arcUB[g] + down; cand > p.suffixUB[in] {
				p.suffixUB[in] = cand
			}
		}
	}
	return p, nil
}

// gateUB returns an upper bound on the delay of any traversal of g: the
// worst characterized arc at the gate's actual load and the slowest
// characterized input slew, evaluated on the run-specialized kernels
// (bit-identical to the full models, so the bound tables — and with
// them the pruning decisions — match the unspecialized build exactly).
// Without a library, every traversal counts 1 (K-worst degenerates to
// K-longest by gate count).
func (e *Engine) gateUB(g *netlist.Gate) (float64, error) {
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
	// The kernels clamp the input slew to the characterized range, so
	// the slowest grid slew is the largest one an arc ever sees; but a
	// fitted polynomial need not be monotone in slew, so its maximum
	// over the range can sit inside it. The 15 % headroom covers that
	// (TestArcUBAdmissible).
	return worst * 1.15, nil
}

// fork returns a pruner sharing the (read-only) bound table and the
// corner's threshold with its parent but owning a fresh heap — one per
// parallel worker, so the k-best state needs no locking.
func (p *pruner) fork() *pruner {
	f := *p
	// stalint:ignore sharedstate the heap is fork-private by construction; only the bound table and threshold are shared
	f.heap = nil
	return &f
}

// threshold returns the delay a new path must beat: the corner's
// shared k-th-best delay, -inf until some fork's heap is full. add
// raises it to the fork's own heap root whenever that root improves,
// so it is never below this fork's root. It is admissible for every
// fork: the k paths of the fork that raised it all reach it, and they
// are distinct, so a path strictly below it cannot be among the k
// best.
func (p *pruner) threshold() float64 {
	return math.Float64frombits(p.kth.Load())
}

// raise lifts the shared threshold to d unless it is already at least
// d.
func (p *pruner) raise(d float64) {
	for {
		old := p.kth.Load()
		if math.Float64frombits(old) >= d || p.kth.CompareAndSwap(old, math.Float64bits(d)) {
			return
		}
	}
}

// viable reports whether out, the output node of a fanout ref's gate,
// still reaches a primary output: the dead-end test, made once per
// fanout ref before any of its vectors is evaluated.
func (p *pruner) viable(out int32) bool {
	return !math.IsInf(p.suffixUB[out], -1)
}

// arrival is the exact arrival at a K-worst path head, per launch
// scenario (0 the rise launch, 1 the fall launch): the delay so far and
// the slew leaving the head. The searcher keeps a stack of them, one
// per traversed arc above the launch seed (searcher.arrs).
type arrival struct {
	delay, slew [2]float64
}

// launchArrival is the seed of the arrival stack at a launch input: no
// delay yet, and the primary-input slew in both scenarios.
func launchArrival(e *Engine) arrival {
	return arrival{slew: [2]float64{e.Opts.InputSlew, e.Opts.InputSlew}}
}

// arrive advances scenario sc of at through arc a on a rising (or
// falling) input edge: the arc's delay is added to the delay so far and
// its output slew replaces the head's. It takes arcStep, the kernel
// step of path scoring, and adds the delays in path order like
// pathDelay's total, so the arrival after a path's last arc is
// bit-identical to that path's delay. Without a library the arc counts
// one unit, as in ArcDelaysInto. ksc is the caller's lane scratch.
//
// stalint:noalloc the arrival step runs per alive scenario of every
// K-worst candidate arc
func (p *pruner) arrive(at *arrival, sc int, a arcRef, rising bool, ksc *kernelScratch) {
	if p.kt == nil {
		at.delay[sc]++
		return
	}
	si := p.kt.arcSlot(a) + int32(edgeIndex(rising))
	ksc.ensure(1, p.kt.pool)
	at.slew[sc] = p.kt.arcStep(si, int(a.gate), at.slew[sc], ksc.pow, ksc.one)
	at.delay[sc] += p.kt.pool.SumLane(p.kt.delayID[si], ksc.pow)
}

// admit is the candidate check of arc a from the current path head,
// made before the arc is charged a step. It returns the exact arrival
// after the arc in every alive launch scenario, and false when the
// largest of them plus suffixUB of the gate output is strictly below
// the threshold. That sum bounds
// every path through the arc: its delay is the arrival plus the delays
// of the arcs still to come, and suffixUB bounds those. Only strictly
// lower bounds prune: a path tying the threshold delay exactly may
// still enter the canonical k-best through the identity tie-break, and
// pruning it would make the kept set depend on discovery order.
//
// stalint:noalloc runs once per candidate arc of a K-worst search
func (p *pruner) admit(s *searcher, a arcRef) (arrival, bool) {
	at := s.arrs[len(s.arrs)-1]
	worst := math.Inf(-1)
	for sc, alive := range [2]bool{s.aliveR, s.aliveF} {
		if alive {
			p.arrive(&at, sc, a, s.curRising == (sc == 0), &s.eng.ksc)
			worst = max(worst, at.delay[sc])
		}
	}
	return at, worst+p.suffixUB[s.graph.gates[a.gate].out] >= p.threshold()
}

// add offers a completed path to the k-best heap. Replacement follows
// the canonical total order (pathBetter), so the kept set is the same
// k paths regardless of the order completions arrive in. Once the heap
// is full, its root is offered to the shared threshold after every
// change.
func (p *pruner) add(tp *TruePath) {
	switch {
	case len(p.heap) < p.k:
		heap.Push(&p.heap, tp)
	case pathBetter(tp, p.heap[0]):
		// stalint:ignore sharedstate the heap is fork-private; each worker mutates only its own
		p.heap[0] = tp
		heap.Fix(&p.heap, 0)
	default:
		return
	}
	if len(p.heap) == p.k {
		p.raise(p.heap[0].WorstDelay())
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
