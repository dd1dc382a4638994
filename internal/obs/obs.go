// Package obs is the instrumentation layer of the repository:
// allocation-conscious counters, timers and histograms, snapshots for
// the OpenMetrics exposition, ordered phase stopwatches for the CLIs,
// a structured trace-event sink (see Tracer), a terminal progress
// printer, and opt-in expvar/pprof debug endpoints (see ServeDebug).
//
// The compute packages (internal/core, internal/charlib and
// internal/baseline) thread these primitives through their hot paths
// so every run can report what it did — sensitization attempts,
// conflicts caught by forward implication, justification backtracks,
// per-phase timings — instead of only a wall-clock total.
// Counter, Timer and Histogram are safe for concurrent use; the search
// engines keep private plain int64 counters on their single-threaded
// hot paths and publish snapshots through these types at the edges.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Timer accumulates durations. One Timer may be fed concurrently from
// many goroutines.
type Timer struct {
	ns atomic.Int64
}

// Observe adds one measured duration.
func (t *Timer) Observe(d time.Duration) { t.ns.Add(int64(d)) }

// Start begins a measurement; the returned stop function records it and
// returns the elapsed duration.
func (t *Timer) Start() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration {
		d := time.Since(t0)
		t.Observe(d)
		return d
	}
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Seconds returns the accumulated duration in seconds.
func (t *Timer) Seconds() float64 { return t.Total().Seconds() }

// Snapshot is a point-in-time copy of named instrument values,
// JSON-serializable with deterministic (sorted) key order.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Phase is one named, timed stage of a run.
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Phases collects ordered phase timings — the shared replacement for
// the ad-hoc `t0 := time.Now(); …; time.Since(t0)` stopwatch idiom the
// CLIs used to repeat. A phase repeated under the same name accumulates.
type Phases struct {
	mu   sync.Mutex
	list []Phase
}

// Start begins timing a named phase; the returned stop function records
// it and returns the elapsed duration.
func (p *Phases) Start(name string) func() time.Duration {
	t0 := time.Now()
	return func() time.Duration {
		d := time.Since(t0)
		p.mu.Lock()
		defer p.mu.Unlock()
		for i := range p.list {
			if p.list[i].Name == name {
				p.list[i].Seconds += d.Seconds()
				return d
			}
		}
		p.list = append(p.list, Phase{Name: name, Seconds: d.Seconds()})
		return d
	}
}

// Map returns name → seconds (for JSON reports).
func (p *Phases) Map() map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := make(map[string]float64, len(p.list))
	for _, ph := range p.list {
		m[ph.Name] = ph.Seconds
	}
	return m
}
