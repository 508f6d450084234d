package subscribe

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/sensor/probe"
)

// testSink is an in-process Sink with an explicit credit window, mirroring
// the srpc stream contract.
type testSink struct {
	mu      sync.Mutex
	updates []*Update
	credit  int
	closed  bool
	err     error
	ready   chan struct{}
	done    chan struct{}
	// delivered signals each accepted update (capacity-buffered).
	delivered chan *Update
}

func newTestSink(credit int) *testSink {
	return &testSink{
		credit:    credit,
		ready:     make(chan struct{}, 1),
		done:      make(chan struct{}),
		delivered: make(chan *Update, 1024),
	}
}

func (k *testSink) TrySend(u *Update) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return ErrSinkClosed
	}
	if k.credit <= 0 {
		return ErrSinkBlocked
	}
	k.credit--
	k.updates = append(k.updates, u)
	select {
	case k.delivered <- u:
	default:
	}
	return nil
}

func (k *testSink) grant(n int) {
	k.mu.Lock()
	k.credit += n
	k.mu.Unlock()
	select {
	case k.ready <- struct{}{}:
	default:
	}
}

func (k *testSink) Ready() <-chan struct{} { return k.ready }
func (k *testSink) Done() <-chan struct{}  { return k.done }

func (k *testSink) Close(err error) {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return
	}
	k.closed = true
	k.err = err
	k.mu.Unlock()
	close(k.done)
}

func (k *testSink) all() []*Update {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Update, len(k.updates))
	copy(out, k.updates)
	return out
}

func (k *testSink) recv(t *testing.T, timeout time.Duration) *Update {
	t.Helper()
	select {
	case u := <-k.delivered:
		return u
	case <-time.After(timeout):
		t.Fatal("timed out waiting for an update")
		return nil
	}
}

func reading(sensor string, v float64) probe.Reading {
	return probe.Reading{Sensor: sensor, Kind: "temperature", Unit: "celsius", Value: v, Timestamp: time.Unix(1700000000, 0)}
}

func TestHubDelivers(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(100)
	if err := h.Subscribe("tok", Filter{}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 21.5))
	u := sink.recv(t, 2*time.Second)
	if len(u.Readings) != 1 || u.Readings[0].Sensor != "rtd-1" || u.Readings[0].Value != 21.5 {
		t.Fatalf("update = %+v", u)
	}
	if u.SeqNo != 1 || u.Dropped != 0 {
		t.Fatalf("seq/dropped = %d/%d", u.SeqNo, u.Dropped)
	}
}

func TestHubSensorAndExprFilter(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(100)
	err := h.Subscribe("tok", Filter{Sensors: []string{"rtd-1"}, Expr: "value > 20"}, sink, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-2", 99)) // wrong sensor
	h.Publish(reading("rtd-1", 10)) // fails predicate
	h.Publish(reading("rtd-1", 25)) // passes
	u := sink.recv(t, 2*time.Second)
	if len(u.Readings) != 1 || u.Readings[0].Value != 25 {
		t.Fatalf("update = %+v", u)
	}
}

func TestHubBadExprRejected(t *testing.T) {
	h := NewHub()
	defer h.Close()
	if err := h.Subscribe("tok", Filter{Expr: "value >"}, newTestSink(1), false, 0); err == nil {
		t.Fatal("malformed filter expression accepted")
	}
}

func TestHubMinChange(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(100)
	if err := h.Subscribe("tok", Filter{MinChange: 0.5}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 20.0)) // first always passes
	sink.recv(t, 2*time.Second)
	h.Publish(reading("rtd-1", 20.2)) // moved 0.2 < 0.5: suppressed
	h.Publish(reading("rtd-1", 20.8)) // moved 0.8 from last accepted: passes
	u := sink.recv(t, 2*time.Second)
	if len(u.Readings) != 1 || u.Readings[0].Value != 20.8 {
		t.Fatalf("update = %+v", u)
	}
}

// TestHubSlowConsumerConflates is the conflation contract: a subscriber
// with no credit accumulates latest-per-sensor, and the next delivered
// update carries the final values plus an accurate dropped count.
func TestHubSlowConsumerConflates(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(1)
	if err := h.Subscribe("tok", Filter{}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 1))
	first := sink.recv(t, 2*time.Second) // consumed the only credit
	if first.Readings[0].Value != 1 {
		t.Fatalf("first = %+v", first)
	}
	// Burst while stalled: 10 readings for rtd-1, 3 for rtd-2.
	for i := 2; i <= 11; i++ {
		h.Publish(reading("rtd-1", float64(i)))
	}
	for i := 1; i <= 3; i++ {
		h.Publish(reading("rtd-2", float64(100+i)))
	}
	// Let the pump observe the blocked sink and conflate.
	time.Sleep(50 * time.Millisecond)
	sink.grant(10)
	u := sink.recv(t, 2*time.Second)
	got := map[string]float64{}
	for _, r := range u.Readings {
		got[r.Sensor] = r.Value
	}
	if got["rtd-1"] != 11 || got["rtd-2"] != 103 {
		t.Fatalf("latest-per-key violated: %+v", got)
	}
	// 13 readings accepted, 2 delivered in this update: 11 conflated away.
	if u.Dropped != 11 {
		t.Fatalf("dropped = %d, want 11", u.Dropped)
	}
	if u.SeqNo != first.SeqNo+1 {
		t.Fatalf("seq jumped: %d after %d", u.SeqNo, first.SeqNo)
	}
}

// TestHubStalledSubscriberDoesNotBlockSiblings: the publisher keeps
// shipping to a live subscriber at full rate while another is stalled —
// the acceptance criterion's seeded slow-consumer test.
func TestHubStalledSubscriberDoesNotBlockSiblings(t *testing.T) {
	h := NewHub()
	defer h.Close()
	stalled := newTestSink(0) // never any credit
	live := newTestSink(1 << 20)
	if err := h.Subscribe("stalled", Filter{}, stalled, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Subscribe("live", Filter{}, live, false, 0); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Publish(reading("rtd-1", float64(i)))
	}
	publishTime := time.Since(start)
	// Publish must not have parked on the stalled subscriber: 2000
	// publishes complete in far under the pump's multi-second timescale.
	if publishTime > 5*time.Second {
		t.Fatalf("publisher stalled: %d publishes took %v", n, publishTime)
	}
	// The live subscriber converges on the final value.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var last float64 = -1
		for _, u := range live.all() {
			for _, r := range u.Readings {
				last = r.Value
			}
		}
		if last == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live subscriber never saw the final value (last %v)", last)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(stalled.all()); got != 0 {
		t.Fatalf("stalled sink received %d updates with zero credit", got)
	}
}

// TestHubDetachCancelsEphemeral: losing the sink of a non-durable
// subscription removes it.
func TestHubDetachCancelsEphemeral(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(10)
	if err := h.Subscribe("tok", Filter{}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	sink.Close(nil) // consumer gone
	deadline := time.Now().Add(2 * time.Second)
	for h.Count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription not reaped; count = %d", h.Count())
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.Resume("tok", newTestSink(1)); err != ErrUnknownToken {
		t.Fatalf("resume after cancel = %v, want ErrUnknownToken", err)
	}
}

// TestHubParkResume: a durable subscription survives sink loss, buffers
// while parked, and the resume update carries backlog plus the drop gap.
func TestHubParkResume(t *testing.T) {
	h := NewHub(WithParkCapacity(4))
	defer h.Close()
	sink := newTestSink(10)
	if err := h.Subscribe("tok", Filter{}, sink, true, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 1))
	sink.recv(t, 2*time.Second)
	sink.Close(nil) // disconnect → parks
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.RLock()
		s := h.subs["tok"]
		h.mu.RUnlock()
		s.mu.Lock()
		parked := s.box != nil
		s.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("durable subscription never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if h.Count() != 1 {
		t.Fatalf("count after park = %d, want 1", h.Count())
	}
	// 6 distinct sensors into a capacity-4 box: 2 oldest drop.
	for i := 0; i < 6; i++ {
		h.Publish(probe.Reading{Sensor: "s" + string(rune('a'+i)), Value: float64(i), Timestamp: time.Unix(1700000100, 0)})
	}
	sink2 := newTestSink(10)
	if err := h.Resume("tok", sink2); err != nil {
		t.Fatal(err)
	}
	u := sink2.recv(t, 2*time.Second)
	if len(u.Readings) != 4 {
		t.Fatalf("resume update has %d readings, want 4", len(u.Readings))
	}
	if u.Dropped != 2 {
		t.Fatalf("resume dropped = %d, want 2 (gap from park overflow)", u.Dropped)
	}
	// The survivors are the newest 4.
	if u.Readings[0].Sensor != "sc" || u.Readings[3].Sensor != "sf" {
		t.Fatalf("resume kept wrong window: %+v", u.Readings)
	}
	// And delivery continues live.
	h.Publish(reading("rtd-1", 2))
	u2 := sink2.recv(t, 2*time.Second)
	if u2.Readings[0].Value != 2 {
		t.Fatalf("post-resume update = %+v", u2)
	}
}

func TestHubResumeErrors(t *testing.T) {
	h := NewHub()
	defer h.Close()
	if err := h.Resume("nope", newTestSink(1)); err != ErrUnknownToken {
		t.Fatalf("unknown token: %v", err)
	}
	sink := newTestSink(1)
	if err := h.Subscribe("tok", Filter{}, sink, true, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := h.Resume("tok", newTestSink(1)); err != ErrAlreadyAttached {
		t.Fatalf("attached resume: %v", err)
	}
	if err := h.Subscribe("tok", Filter{}, newTestSink(1), false, 0); err != ErrDuplicateToken {
		t.Fatalf("duplicate: %v", err)
	}
}

// TestHubParkedLeaseExpiry: a parked subscription whose lease lapses is
// reaped on the next publish.
func TestHubParkedLeaseExpiry(t *testing.T) {
	clock := clockwork.NewFake(time.Unix(1700000000, 0))
	h := NewHub(WithHubClock(clock))
	defer h.Close()
	sink := newTestSink(10)
	if err := h.Subscribe("tok", Filter{}, sink, true, time.Second); err != nil {
		t.Fatal(err)
	}
	h.Detach("tok") // park with 1s lease
	if h.Count() != 1 {
		t.Fatalf("count after park = %d", h.Count())
	}
	clock.Advance(2 * time.Second)
	h.Publish(reading("rtd-1", 1))
	if h.Count() != 0 {
		t.Fatalf("expired parked subscription survived; count = %d", h.Count())
	}
	if err := h.Resume("tok", newTestSink(1)); err != ErrUnknownToken {
		t.Fatalf("resume after expiry = %v, want ErrUnknownToken", err)
	}
}

// TestHubMinIntervalPacing: with a min-interval, deliveries space out and
// intervening readings conflate.
func TestHubMinIntervalPacing(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(1000)
	if err := h.Subscribe("tok", Filter{MinIntervalMS: 100}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 1))
	sink.recv(t, 2*time.Second)
	// A burst inside the pacing window conflates to one update.
	for i := 2; i <= 5; i++ {
		h.Publish(reading("rtd-1", float64(i)))
	}
	u := sink.recv(t, 2*time.Second)
	if u.Readings[0].Value != 5 {
		t.Fatalf("paced update = %+v, want conflated latest 5", u.Readings)
	}
	select {
	case extra := <-sink.delivered:
		t.Fatalf("pacing violated: extra update %+v", extra)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestHubCloseStopsPumps: Close with stalled and live subscribers leaks
// no goroutines.
func TestHubCloseStopsPumps(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHub()
	for i := 0; i < 10; i++ {
		if err := h.Subscribe("tok"+string(rune('0'+i)), Filter{}, newTestSink(0), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		h.Publish(reading("rtd-1", float64(i)))
	}
	h.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
}

// TestHubCloseRacesAttach: Subscribe and Resume racing Close either
// attach before Close sweeps the subscription (and then Close closes
// their sink) or fail; no pump goroutine outlives Close, and both fail
// with ErrHubClosed once Close has returned.
func TestHubCloseRacesAttach(t *testing.T) {
	for i := 0; i < 1000; i++ {
		h := NewHub()
		if err := h.Subscribe("parked", Filter{}, newTestSink(1), true, time.Minute); err != nil {
			t.Fatal(err)
		}
		h.Detach("parked")
		start := make(chan struct{})
		var wg sync.WaitGroup
		var mu sync.Mutex
		var attached []*testSink
		race := func(call func(*testSink) error, allowed ...error) {
			defer wg.Done()
			sink := newTestSink(1)
			<-start
			err := call(sink)
			if err == nil {
				mu.Lock()
				attached = append(attached, sink)
				mu.Unlock()
				return
			}
			for _, a := range allowed {
				if err == a {
					return
				}
			}
			t.Errorf("racing Close: %v", err)
		}
		for j := 0; j < 8; j++ {
			wg.Add(1)
			token := fmt.Sprintf("tok%d", j)
			go race(func(k *testSink) error { return h.Subscribe(token, Filter{}, k, false, 0) }, ErrHubClosed)
		}
		wg.Add(1)
		// ErrUnknownToken: Close cancelled the parked subscription first.
		go race(func(k *testSink) error { return h.Resume("parked", k) }, ErrHubClosed, ErrUnknownToken)
		close(start)
		closed := make(chan struct{})
		go func() {
			h.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: Close hung waiting on a pump it never stopped", i)
		}
		wg.Wait()
		if err := h.Resume("parked", newTestSink(1)); err != ErrHubClosed {
			t.Fatalf("Resume after Close = %v, want ErrHubClosed", err)
		}
		if err := h.Subscribe("late", Filter{}, newTestSink(1), false, 0); err != ErrHubClosed {
			t.Fatalf("Subscribe after Close = %v, want ErrHubClosed", err)
		}
		for _, k := range attached {
			select {
			case <-k.Done():
			default:
				t.Fatalf("iteration %d: a sink attached before Close was never closed", i)
			}
		}
		if n := waitNoPumps(); n != 0 {
			t.Fatalf("iteration %d: %d pump goroutines outlived Close", i, n)
		}
	}
}

// waitNoPumps waits briefly for exiting pumps to finish returning and
// reports how many subscription goroutines remain.
func waitNoPumps() int {
	deadline := time.Now().Add(time.Second)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		n := 0
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "sensorcer/internal/subscribe.(*Hub).") && !strings.Contains(g, "testing.tRunner") {
				n++
			}
		}
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSourceSingleEval: a burst of upstream deltas coalesces into at
// most two evaluations regardless of subscriber count.
func TestSourceSingleEval(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sinks := make([]*testSink, 50)
	for i := range sinks {
		sinks[i] = newTestSink(1000)
		if err := h.Subscribe("tok"+string(rune('0'+i/10))+string(rune('0'+i%10)), Filter{}, sinks[i], false, 0); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	evals := 0
	src := NewSource(h, readerFunc(func() (probe.Reading, error) {
		mu.Lock()
		evals++
		v := evals
		mu.Unlock()
		time.Sleep(10 * time.Millisecond) // make evaluation slow enough to coalesce under
		return reading("composite", float64(v)), nil
	}))
	src.Start()
	defer src.Stop()
	// 100 upstream deltas in a burst.
	for i := 0; i < 100; i++ {
		src.Notify()
	}
	// Every subscriber gets the pushed value.
	for _, k := range sinks {
		k.recv(t, 5*time.Second)
	}
	mu.Lock()
	n := evals
	mu.Unlock()
	if n > 2 {
		t.Fatalf("burst of 100 deltas cost %d evaluations, want ≤ 2", n)
	}
	if src.Evals() != uint64(n) {
		t.Fatalf("Evals() = %d, want %d", src.Evals(), n)
	}
}

type readerFunc func() (probe.Reading, error)

func (f readerFunc) GetValue() (probe.Reading, error) { return f() }
