package obs

import (
	"sync/atomic"
	"time"
)

// WorkerGauges tracks a fixed-size worker pool: per-worker
// busy/idle-time accumulators and work-stealing counters (steals per
// worker, donations pool-wide), from which pool utilization and
// balance are derived. All methods are safe for concurrent use; each
// worker touches only its own slot on the hot path, so there is no
// contention between workers.
//
// The parallel true-path search and any other sharded engine publish
// one of these per run; CharStats-style utilization summaries are
// computed from the snapshot at the end.
type WorkerGauges struct {
	start     time.Time
	busy      []atomic.Int64 // accumulated busy nanoseconds per worker
	idle      []atomic.Int64 // accumulated parked-waiting nanoseconds per worker
	steals    []atomic.Int64 // units taken from a peer's queue, per thief
	donations Counter        // subtrees donated to the pool
}

// NewWorkerGauges builds gauges for an n-worker pool and starts the
// wall clock.
func NewWorkerGauges(n int) *WorkerGauges {
	return &WorkerGauges{
		start:  time.Now(),
		busy:   make([]atomic.Int64, n),
		idle:   make([]atomic.Int64, n),
		steals: make([]atomic.Int64, n),
	}
}

// Busy marks worker w busy; the returned stop function accumulates the
// elapsed time into the worker's gauge and returns it, so a caller can
// attribute the same reading elsewhere without a second clock read.
func (g *WorkerGauges) Busy(w int) func() time.Duration {
	t0 := time.Now()
	return func() time.Duration {
		d := time.Since(t0)
		g.busy[w].Add(int64(d))
		return d
	}
}

// IdleStart marks worker w parked waiting for work; the returned stop
// function accumulates the wait into the worker's idle gauge.
func (g *WorkerGauges) IdleStart(w int) func() {
	t0 := time.Now()
	return func() {
		g.idle[w].Add(int64(time.Since(t0)))
	}
}

// Steal counts one unit worker w took from a peer's queue.
func (g *WorkerGauges) Steal(w int) { g.steals[w].Add(1) }

// Donation counts one subtree donated to the pool.
func (g *WorkerGauges) Donation() { g.donations.Inc() }

// Donations returns the pool-wide donation count.
func (g *WorkerGauges) Donations() int64 { return g.donations.Load() }

// Steals returns the per-worker steal counts.
func (g *WorkerGauges) Steals() []int64 {
	out := make([]int64, len(g.steals))
	for i := range g.steals {
		out[i] = g.steals[i].Load()
	}
	return out
}

// Workers returns the pool size.
func (g *WorkerGauges) Workers() int { return len(g.busy) }

// BusySeconds returns the accumulated busy time per worker.
func (g *WorkerGauges) BusySeconds() []float64 {
	out := make([]float64, len(g.busy))
	for i := range g.busy {
		out[i] = time.Duration(g.busy[i].Load()).Seconds()
	}
	return out
}

// IdleSeconds returns the accumulated parked-waiting time per worker.
func (g *WorkerGauges) IdleSeconds() []float64 {
	out := make([]float64, len(g.idle))
	for i := range g.idle {
		out[i] = time.Duration(g.idle[i].Load()).Seconds()
	}
	return out
}

// WallSeconds returns the elapsed wall time since construction.
func (g *WorkerGauges) WallSeconds() float64 { return time.Since(g.start).Seconds() }

// Balance returns max busy time over mean busy time across the pool —
// 1.0 for a perfectly even load, ≈ n when one of n workers did all
// the work. 0 when nothing ran.
func (g *WorkerGauges) Balance() float64 {
	total, max := 0.0, 0.0
	for _, s := range g.BusySeconds() {
		total += s
		if s > max {
			max = s
		}
	}
	if total <= 0 || len(g.busy) == 0 {
		return 0
	}
	return max / (total / float64(len(g.busy)))
}

// Utilization returns total busy time over workers × wall time — how
// well the pool was kept fed (1.0 = every worker busy the whole run).
func (g *WorkerGauges) Utilization() float64 {
	wall := g.WallSeconds()
	if len(g.busy) == 0 || wall <= 0 {
		return 0
	}
	total := 0.0
	for _, s := range g.BusySeconds() {
		total += s
	}
	return total / (float64(len(g.busy)) * wall)
}
