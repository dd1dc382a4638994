package core

import (
	"sync/atomic"

	"tpsta/internal/cell"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
)

// Conflict-driven nogood learning for the sensitization search.
//
// On reconvergent circuits (c6288-class multipliers) the DFS
// re-discovers the same side-input conflicts in exponentially many
// subtrees: the same (gate, pin, vector) decision is re-attempted under
// a constraint store that is identical on every net the attempt
// actually examines, and fails the same way every time. Learning turns
// each such failure into a *nogood* — the decision identity plus the
// exact values of the nets its forward implication read — and prunes
// later re-attempts before they are charged a step.
//
// Soundness rests on a memoization argument, not on clause resolution:
// applying a sensitization decision (assertVector) is a deterministic
// function of the decision identity, the entry alive-scenario bits and
// the values of the nets it reads. The recording pass re-runs the
// failed assertion once with a read recorder attached and captures the
// *first* read of every net touched (later reads, and reads of nets
// the attempt itself wrote, are determined by the earlier ones and
// carry no information). If a later attempt starts from a store that is
// *exactly equal* on every recorded net — equality, not refinement:
// under a merely refined store the single-cube backward implication
// can be skipped by implied() and the assertion succeed — the attempt
// replays the recorded execution step for step and fails identically.
// A matched nogood therefore proves the subtree dead before any of its
// cost is paid.
//
// Two kinds of dead decision are learned:
//
//   - kindConflict: the side-value assertion itself failed (both launch
//     scenarios killed by forward implication);
//   - kindDeadArc: the assertion succeeded but the arc cannot continue —
//     the vector propagates no edge of the current launch polarity, or
//     the gate output's implied trajectory is viable for neither
//     surviving scenario. These additionally depend on the launch
//     polarity (key bit) and the gate-output value (recorded read).
//
// Because learning only ever skips decisions that provably emit
// nothing, the recorded path set is byte-identical with learning on or
// off, and under a truncated budget the learned run remains a subset of
// the serial untruncated set — pruned decisions are rejected before
// stepBudget.take(), so they cannot perturb the truncation contract.

// Nogood kinds (see package comment above).
const (
	kindConflict = uint8(iota) // side-value assertion failed
	kindDeadArc                // assertion fine, no viable continuation
)

// Store sizing. Oversized recordings are dropped (LearnStats.Oversized)
// rather than stored: a nogood with a huge read set almost never
// re-matches exactly and only slows the bucket scans down.
const (
	maxNogoodConds = 48      // conditions per nogood
	maxNogoodsPer  = 96      // nogoods per decision bucket
	maxNogoods     = 1 << 15 // nogoods per worker store
	maxBoardSize   = 1 << 16 // exchanged nogoods per parallel run
)

// learnCond is one recorded read: net nid held dual value val when the
// failing attempt first examined it.
type learnCond struct {
	nid int32
	val logic.Dual
}

// nogood is one learned dead decision in a worker's private store. The
// watch indices w0/w1 are mutable per-store scratch: matchConds checks
// the watched conditions first and, on a mismatch elsewhere, moves a
// watch onto the failing condition — the store-state distinction that
// killed this lookup is overwhelmingly likely to kill the next one too,
// so rejection stays O(1) without scanning the whole read set.
type nogood struct {
	sig    sig128 // identity over key+kind+rising+conds (dedupe, exchange)
	conds  []learnCond
	w0, w1 int32
	kind   uint8
	rising bool // kindDeadArc: launch polarity the arc was attempted under
}

// nogoodExport is the immutable exchange form of a learned nogood: no
// watch fields (watches are per-store scratch; sharing them would race
// donor watch moves against importer reads), conds shared read-only.
//
// stalint:frozen — published via nogoodBoard snapshots and read
// concurrently by every worker; any post-construction write is a race.
type nogoodExport struct {
	key    uint64
	sig    sig128
	conds  []learnCond
	kind   uint8
	rising bool
}

// nogoodSnap is one published board state: an append-only list of
// exported nogoods. Every snapshot's list is a prefix-extension of
// every earlier snapshot's (publish copies the old list and appends),
// so an importer only ever consumes list[impMark:] and never re-checks
// a prefix it has already adopted.
//
// stalint:frozen — snapshots are immutable once published; workers read
// them lock-free through the board's atomic pointer.
type nogoodSnap struct {
	list []nogoodExport
}

// nogoodBoard is the lock-free exchange point of a parallel run: a
// single atomic pointer to the latest snapshot. Donors publish their
// fresh nogoods with a copy-on-write CAS append; importers load the
// current snapshot and adopt the suffix they have not seen. The board
// is also stamped onto every donated resumePoint, so a thief inherits
// the victim's learned clauses together with the subtree.
type nogoodBoard struct {
	snap atomic.Pointer[nogoodSnap]
}

// publish CAS-appends items to the board. A full board silently stops
// growing — learning is an optimization, losing late clauses is safe.
func (b *nogoodBoard) publish(items []nogoodExport) {
	if len(items) == 0 {
		return
	}
	for {
		old := b.snap.Load()
		var prev []nogoodExport
		if old != nil {
			prev = old.list
		}
		if len(prev) >= maxBoardSize {
			return
		}
		merged := make([]nogoodExport, 0, len(prev)+len(items))
		merged = append(merged, prev...)
		merged = append(merged, items...)
		next := &nogoodSnap{list: merged}
		if b.snap.CompareAndSwap(old, next) {
			return
		}
	}
}

// LearnStats is the conflict-learning snapshot of one run. It is kept
// out of SearchStats deliberately: hit counts depend on visit order and
// cross-worker exchange timing, so they are schedule-dependent, while
// SearchStats remains exactly comparable between serial and parallel
// runs (the differential harness checks it strictly).
type LearnStats struct {
	// Learned counts nogoods recorded into a worker store (imports
	// excluded).
	Learned int64 `json:"learned"`
	// Hits counts decisions pruned by a matched nogood — each hit saves
	// exactly one sensitization step plus the subtree under it.
	Hits int64 `json:"hits"`
	// Conditions is the total read-set size across learned nogoods.
	Conditions int64 `json:"conditions"`
	// Oversized counts recordings dropped for exceeding the condition
	// cap; Dropped counts recordings dropped on a full store or bucket.
	Oversized int64 `json:"oversized"`
	Dropped   int64 `json:"dropped"`
	// Exported/Imported count nogoods published to and adopted from the
	// exchange board (always 0 in serial runs).
	Exported int64 `json:"exported"`
	Imported int64 `json:"imported"`
}

func (ls *LearnStats) add(o LearnStats) {
	ls.Learned += o.Learned
	ls.Hits += o.Hits
	ls.Conditions += o.Conditions
	ls.Oversized += o.Oversized
	ls.Dropped += o.Dropped
	ls.Exported += o.Exported
	ls.Imported += o.Imported
}

// nogoodStore is one searcher's private learning state: the nogood
// index (bucketed by decision key), the signature dedupe set, the
// epoch-tagged read recorder and the exchange bookkeeping. Never shared
// between goroutines — cross-worker flow goes through nogoodBoard
// snapshots only.
type nogoodStore struct {
	buckets map[uint64][]*nogood
	sigs    map[sig128]struct{}
	count   int

	// Read recorder (one recording pass at a time): first-read-wins
	// epoch tagging over the circuit's nets. A net written by the
	// attempt itself is determined by the earlier reads and is not a
	// condition.
	epoch    uint32
	readEp   []uint32
	writeEp  []uint32
	conds    []learnCond
	overflow bool

	// Exchange state: locally learned nogoods awaiting publication and
	// the board-list prefix already adopted.
	pendingExport []nogoodExport
	impMark       int

	stats LearnStats

	// verify, when non-nil, is invoked on every match hit with the
	// pruned decision — the soundness property/fuzz tests re-derive the
	// deadness of each pruned subtree through it.
	verify func(s *searcher, g *netlist.Gate, vec cell.Vector, kind uint8)
}

func newNogoodStore(nodes int) *nogoodStore {
	return &nogoodStore{
		buckets: make(map[uint64][]*nogood),
		sigs:    make(map[sig128]struct{}),
		readEp:  make([]uint32, nodes),
		writeEp: make([]uint32, nodes),
	}
}

// bucketKey packs the decision identity that is constant-checkable
// before any condition scan: the arc token (gate, entry-pin index,
// vector case) and the entry alive-scenario bits. The kindDeadArc
// polarity is checked per nogood instead of keyed, so one map probe
// serves both kinds.
func bucketKey(g *netlist.Gate, vec cell.Vector, aliveR, aliveF bool) uint64 {
	key := arcToken(g.ID, pinIndex(g.Cell.Inputs, vec.Pin), vec.Case) << 2
	if aliveR {
		key |= 1
	}
	if aliveF {
		key |= 2
	}
	return key
}

// match reports whether a learned nogood proves the decision dead under
// the current constraint store. Called before the decision is charged a
// step; a hit prunes the whole subtree at zero cost.
//
// stalint:noalloc the prune runs ahead of every decision — a miss (the
// common case) must cost a bucket lookup and two watch probes, nothing
// more
func (st *nogoodStore) match(s *searcher, g *netlist.Gate, vec cell.Vector) bool {
	lst := st.buckets[bucketKey(g, vec, s.aliveR, s.aliveF)]
	if len(lst) == 0 {
		return false
	}
	for _, ng := range lst {
		if ng.kind == kindDeadArc && ng.rising != s.curRising {
			continue
		}
		if !st.matchConds(s, ng) {
			continue
		}
		st.stats.Hits++
		if st.verify != nil {
			// stalint:ignore noalloc test-only soundness hook (FuzzNogood replay); nil outside the fuzz harness
			st.verify(s, g, vec, ng.kind)
		}
		return true
	}
	return false
}

// matchConds checks the recorded read set against the live store:
// watched conditions first (O(1) rejection on the common miss), full
// scan only when both watches hold. Equality is exact — see the package
// comment for why refinement matching would be unsound here.
func (st *nogoodStore) matchConds(s *searcher, ng *nogood) bool {
	c := ng.conds
	if len(c) == 0 {
		// A condition-free nogood (the assertion read nothing) holds
		// unconditionally: the decision is dead in every store state.
		return true
	}
	if s.values[c[ng.w0].nid] != c[ng.w0].val {
		return false
	}
	if s.values[c[ng.w1].nid] != c[ng.w1].val {
		return false
	}
	for i := range c {
		if s.values[c[i].nid] != c[i].val {
			ng.w1 = ng.w0
			ng.w0 = int32(i)
			return false
		}
	}
	return true
}

// beginRecord opens one recording pass (the re-run of a failed
// decision with the recorder attached).
func (st *nogoodStore) beginRecord() {
	st.epoch++
	st.conds = st.conds[:0]
	st.overflow = false
}

// noteRead records the first read of a net in this pass. Reads of nets
// the pass already read or wrote carry no information (the replayed
// execution determines them) and are skipped.
func (st *nogoodStore) noteRead(nid int, val logic.Dual) {
	if st.readEp[nid] == st.epoch || st.writeEp[nid] == st.epoch {
		return
	}
	st.readEp[nid] = st.epoch
	if len(st.conds) >= maxNogoodConds {
		st.overflow = true
		return
	}
	st.conds = append(st.conds, learnCond{nid: int32(nid), val: val})
}

// noteWrite marks a net written by the recording pass.
func (st *nogoodStore) noteWrite(nid int) {
	st.writeEp[nid] = st.epoch
}

// condToken folds one condition into the signature stream.
func condToken(c learnCond) uint64 {
	return uint64(uint32(c.nid))<<16 | uint64(c.val.Rise)<<8 | uint64(c.val.Fall)
}

// learn installs the recording opened by beginRecord as a nogood under
// the given decision identity. Duplicate recordings (same signature)
// and recordings past the size caps are dropped.
func (st *nogoodStore) learn(g *netlist.Gate, vec cell.Vector, aliveR, aliveF bool, kind uint8, rising bool) {
	if st.overflow {
		st.stats.Oversized++
		return
	}
	key := bucketKey(g, vec, aliveR, aliveF)
	sig := sig128{}.absorb(key<<10 | uint64(kind)<<1 | uint64(boolBit(rising)))
	for _, c := range st.conds {
		sig = sig.absorb(condToken(c))
	}
	if _, dup := st.sigs[sig]; dup {
		return
	}
	if st.count >= maxNogoods || len(st.buckets[key]) >= maxNogoodsPer {
		st.stats.Dropped++
		return
	}
	conds := append([]learnCond(nil), st.conds...)
	ng := &nogood{sig: sig, conds: conds, w0: 0, w1: watchLast(conds), kind: kind, rising: rising}
	st.buckets[key] = append(st.buckets[key], ng)
	st.sigs[sig] = struct{}{}
	st.count++
	st.stats.Learned++
	st.stats.Conditions += int64(len(conds))
	st.pendingExport = append(st.pendingExport, nogoodExport{
		key: key, sig: sig, conds: conds, kind: kind, rising: rising})
}

// exportTo publishes the locally learned nogoods accumulated since the
// last publication to the exchange board.
func (st *nogoodStore) exportTo(b *nogoodBoard) {
	if b == nil || len(st.pendingExport) == 0 {
		return
	}
	b.publish(st.pendingExport)
	st.stats.Exported += int64(len(st.pendingExport))
	st.pendingExport = st.pendingExport[:0]
}

// adopt imports the unseen suffix of a board snapshot into the local
// store, with fresh watches and signature dedupe (a worker's own
// exports come back on the board and are skipped here).
func (st *nogoodStore) adopt(sn *nogoodSnap) {
	if sn == nil || len(sn.list) <= st.impMark {
		return
	}
	for _, ex := range sn.list[st.impMark:] {
		if _, dup := st.sigs[ex.sig]; dup {
			continue
		}
		if st.count >= maxNogoods || len(st.buckets[ex.key]) >= maxNogoodsPer {
			st.stats.Dropped++
			continue
		}
		ng := &nogood{sig: ex.sig, conds: ex.conds, w0: 0,
			w1: watchLast(ex.conds), kind: ex.kind, rising: ex.rising}
		st.buckets[ex.key] = append(st.buckets[ex.key], ng)
		st.sigs[ex.sig] = struct{}{}
		st.count++
		st.stats.Imported++
	}
	st.impMark = len(sn.list)
}

// exchange is the periodic lock-free exchange at the donation-poll
// site: publish what this worker learned, adopt what the pool did.
//
// stalint:coldpath runs at the steal-poll cadence (StealPollSteps), so
// the snapshot copy amortizes over thousands of search steps
func (st *nogoodStore) exchange(b *nogoodBoard) {
	if b == nil {
		return
	}
	st.exportTo(b)
	st.adopt(b.snap.Load())
}

// watchLast picks the initial second watch: the last condition, or 0
// for the degenerate condition-free nogood (matchConds never indexes
// the watches of an empty read set).
func watchLast(conds []learnCond) int32 {
	if len(conds) == 0 {
		return 0
	}
	return int32(len(conds) - 1)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
