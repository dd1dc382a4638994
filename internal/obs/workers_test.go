package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tpsta/internal/num"
)

func TestWorkerGauges(t *testing.T) {
	g := NewWorkerGauges(3)
	if g.Workers() != 3 {
		t.Fatalf("Workers() = %d", g.Workers())
	}
	var wg sync.WaitGroup
	returned := make([]time.Duration, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				stop := g.Busy(w)
				time.Sleep(time.Millisecond)
				returned[w] += stop()
			}
		}(w)
	}
	wg.Wait()
	busy := g.BusySeconds()
	if len(busy) != 3 {
		t.Fatalf("BusySeconds len = %d", len(busy))
	}
	for w, s := range busy {
		if s <= 0 {
			t.Errorf("worker %d busy seconds = %g", w, s)
		}
		// The stop function returns exactly the reading it accumulated.
		if want := returned[w].Seconds(); !num.IsZero(s - want) {
			t.Errorf("worker %d busy seconds = %g, stop returned %g", w, s, want)
		}
	}
	if g.WallSeconds() <= 0 {
		t.Errorf("WallSeconds = %g", g.WallSeconds())
	}
	if u := g.Utilization(); u <= 0 || u > 1 {
		t.Errorf("Utilization = %g", u)
	}
	if b := g.Balance(); b < 1 || b > 3 {
		t.Errorf("Balance = %g, want within [1, workers]", b)
	}
}

func TestWorkerGaugesStealingCounters(t *testing.T) {
	g := NewWorkerGauges(2)
	if !num.IsZero(g.Balance()) {
		t.Errorf("Balance = %g before any work, want 0", g.Balance())
	}
	stop := g.IdleStart(1)
	time.Sleep(time.Millisecond)
	stop()
	g.Steal(1)
	g.Steal(1)
	g.Donation()
	idle := g.IdleSeconds()
	if len(idle) != 2 || idle[1] <= 0 || !num.IsZero(idle[0]) {
		t.Errorf("IdleSeconds = %v, want only worker 1 idle", idle)
	}
	if steals := g.Steals(); len(steals) != 2 || steals[0] != 0 || steals[1] != 2 {
		t.Errorf("Steals = %v, want [0 2]", steals)
	}
	if g.Donations() != 1 {
		t.Errorf("Donations = %d, want 1", g.Donations())
	}
	// One worker doing all the busy work pushes balance to the pool
	// size.
	done := g.Busy(0)
	time.Sleep(2 * time.Millisecond)
	done()
	if b := g.Balance(); b < 1.5 {
		t.Errorf("Balance = %g with one fully skewed worker of two, want ≈2", b)
	}
}

func TestPrinterWorkersAndMonotonicity(t *testing.T) {
	var buf strings.Builder
	p := NewPrinter(&buf)
	p.SetWorkers(4)
	p.Update(1000, 0, 2)
	// An aggregate arriving out of order must not count backwards.
	p.Update(400, 0, 2)
	p.Done(1000, 3)
	out := buf.String()
	if !strings.Contains(out, "search[×4]:") {
		t.Errorf("output missing pool label: %q", out)
	}
	if strings.Contains(out, "400 steps") {
		t.Errorf("output counted backwards: %q", out)
	}
}
