package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one structured trace record emitted by a search engine.
// Kind identifies the event; the remaining fields are event-specific
// and omitted from the encoding when zero:
//
//	"input"    — DFS from a launching primary input begins (Input, Steps)
//	"path"     — a true path was recorded (Path, Edges, DelayPs, Steps)
//	"truncate" — a search cap fired (Detail = reason, Steps)
//	"kernels"  — the run-specialized delay-kernel table was built
//	             (N = arcs specialized, Detail = terms and cells)
//	"done"     — the search finished (Steps, N = paths recorded)
//	"span"     — a hierarchical span ended (Name, Span, Parent, DurNs,
//	             Worker; see StartSpan). T is the span's end; start is
//	             T − DurNs seconds.
//	"donate"   — a busy worker donated a DFS subtree (Worker = donor,
//	             Input, Steps)
//	"steal"    — an idle worker took a unit from a peer's deque
//	             (Worker = thief, Detail = "shard" or "subtree")
//	"resume"   — a worker began replaying a donated subtree (Input,
//	             Worker, Steps)
//	"step"     — sampled search step (Options.TraceSampleEvery): Depth
//	             is the DFS arc depth, Sig the frame's 128-bit path
//	             signature (hex), Input the launch point, Worker the
//	             searcher, Detail "replay" while re-descending a stolen
//	             prefix
//
// Worker is 0-based and omitted when zero: a missing worker field
// means worker 0 (or the serial searcher).
type Event struct {
	// T is seconds since the tracer was created (stamped by the sink,
	// not the engine).
	T       float64 `json:"t"`
	Kind    string  `json:"kind"`
	Input   string  `json:"input,omitempty"`
	Path    string  `json:"path,omitempty"`
	Edges   string  `json:"edges,omitempty"`
	DelayPs float64 `json:"delayPs,omitempty"`
	Steps   int64   `json:"steps,omitempty"`
	N       int64   `json:"n,omitempty"`
	Detail  string  `json:"detail,omitempty"`

	// Span fields (Kind "span"): identity, tree link, duration and the
	// span's name (e.g. "run", "enumerate", "worker", "shard",
	// "subtree").
	Name   string `json:"name,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	DurNs  int64  `json:"durNs,omitempty"`

	// Worker attributes the event to one pool worker (0-based,
	// omitted when 0).
	Worker int `json:"worker,omitempty"`

	// Sampled-step fields (Kind "step").
	Depth int    `json:"depth,omitempty"`
	Sig   string `json:"sig,omitempty"`
}

// Tracer consumes structured search events. Engines call Emit only at
// coarse event points (path recorded, input started, truncation), never
// per search step, so an implementation may do real I/O. A parallel
// search calls Emit from every worker at once: implementations must be
// safe for concurrent use.
type Tracer interface {
	Emit(ev Event)
}

// JSONL writes events as JSON Lines through a buffered writer. It
// stamps Event.T relative to its creation time. Safe for concurrent
// Emit calls; call Flush before closing the underlying writer.
type JSONL struct {
	mu    sync.Mutex
	w     *bufio.Writer
	enc   *json.Encoder
	start time.Time
}

// NewJSONL builds a JSONL tracer over w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw), start: time.Now()}
}

// Emit stamps and writes one event as a JSON line. Encoding errors are
// dropped (tracing must never fail a search).
func (t *JSONL) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev.T = time.Since(t.start).Seconds()
	_ = t.enc.Encode(ev)
}

// Flush drains the buffer to the underlying writer.
func (t *JSONL) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}
