package main

import (
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedOps drives the open-loop generator
// against a fake target that stalls once for a known time. Ops due
// during the stall must show it in their latency, because latency runs
// from the due time, and the generator must show it in its issue lag,
// because every worker is blocked behind the stall.
func TestOpenLoopChargesStallToQueuedOps(t *testing.T) {
	// The stall dwarfs the scheduling hiccups of a shared machine (tens of
	// milliseconds), so the thresholds below separate the two.
	const (
		rate    = 1000 // one op due every millisecond
		stallAt = 100
		stall   = 400 * time.Millisecond
		calmMax = 150.0 // ms
	)
	var mu sync.Mutex // the target serves one op at a time
	target := func(stallFor time.Duration) func(int, time.Time) error {
		return func(k int, _ time.Time) error {
			mu.Lock()
			defer mu.Unlock()
			if k == stallAt {
				time.Sleep(stallFor)
			}
			return nil
		}
	}

	res := openLoop(rate, time.Second, 4, target(stall))
	if res.attempted != 1000 || res.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want 1000, 0", res.attempted, res.failed)
	}
	// The op due 1 ms after the stall began waits out the rest of it.
	if got, want := res.lat[stallAt+1], ms(stall)-10; got < want {
		t.Errorf("latency of the op queued behind the stall = %.1f ms, want >= %.1f", got, want)
	}
	// An op due halfway through the stall waits for its second half, even
	// though it was only issued once the backlog drained: timing from
	// issue instead of due time would report little of it.
	mid := stallAt + 200
	if got := res.lat[mid]; got < 150 {
		t.Errorf("latency of op due mid-stall = %.1f ms, want >= 150", got)
	}
	if got := res.lat[mid] - res.lag[mid]; got > calmMax {
		t.Errorf("op due mid-stall took %.1f ms after issue; the stall should be in its lag (%.1f ms)", got, res.lag[mid])
	}
	if got := quantile(res.lat, 0.99); got < ms(stall)/2 {
		t.Errorf("latency p99 = %.1f ms, want the stall to show (>= %.1f)", got, ms(stall)/2)
	}
	if got := quantile(res.lag, 0.99); got < ms(stall)/2 {
		t.Errorf("loadgen lag p99 = %.1f ms, want the stall to show (>= %.1f)", got, ms(stall)/2)
	}

	// Control: the same target without the stall keeps both low.
	calm := openLoop(rate, time.Second, 4, target(0))
	if got := quantile(calm.lag, 0.99); got > calmMax {
		t.Errorf("loadgen lag p99 without a stall = %.1f ms, want < %.0f", got, calmMax)
	}
	if got := quantile(calm.lat, 0.99); got > calmMax {
		t.Errorf("latency p99 without a stall = %.1f ms, want < %.0f", got, calmMax)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
