package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadResult is what one load phase measured.
type loadResult struct {
	// lat holds one latency per attempted op, from the op's due time to
	// its completion; a failed op is +Inf, so it misses every limit.
	lat []float64 // ms
	// lag holds how late each op was issued relative to its due time.
	lag       []float64 // ms
	attempted int
	failed    int
	elapsed   time.Duration
}

// openLoop issues op k at start + k/rate for d, whatever the state of
// earlier ops: independent users. A fixed pool of workers runs the ops;
// when every worker is busy the next op waits in line, and because its
// latency is timed from its due time, not from when a worker picked it
// up, a stall is charged to every op queued behind it. The issue lag
// shows the same stall from the generator's side.
func openLoop(rate float64, d time.Duration, workers int, do func(k int, due time.Time) error) loadResult {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(d / interval)
	if n < 1 {
		n = 1
	}
	lat := make([]float64, n)
	lag := make([]float64, n)
	var failed atomic.Int64
	type job struct {
		k   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				lag[j.k] = ms(time.Since(j.due))
				if err := do(j.k, j.due); err != nil {
					failed.Add(1)
					lat[j.k] = math.Inf(1)
					continue
				}
				lat[j.k] = ms(time.Since(j.due))
			}
		}()
	}
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{k: k, due: due}
	}
	close(jobs)
	wg.Wait()
	return loadResult{lat: lat, lag: lag, attempted: n, failed: int(failed.Load()), elapsed: time.Since(start)}
}

// closedLoop runs clients goroutines, each issuing its next op as soon
// as the previous one returns, for d: callers that wait for replies.
func closedLoop(d time.Duration, clients int, do func(k int) error) (ops, failed int, elapsed time.Duration) {
	var next, bad atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := do(int(next.Add(1) - 1)); err != nil {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(next.Load()), int(bad.Load()), time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; +Inf entries sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
