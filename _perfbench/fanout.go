package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sensorcer/internal/remote"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/srpc"
	"sensorcer/internal/subscribe"
)

// subscribe-fanout: about a thousand subscribers hold streams
// multiplexed over two client connections to one subscription hub. Eight
// Sources each read a settable sensor the benchmark owns. A delta sets
// one sensor to the delta's own number and notifies its Source, so every
// received reading names the delta it carries and can be matched to its
// due time. Filters are a seeded mix: none, a sensor subset, an expr
// predicate on value, and min-change.
const (
	fanoutSubscribers = 1024
	fanoutSensors     = 8
	minChange         = 16
	maxDeltas         = 1 << 17
	convergeTimeout   = 30 * time.Second
)

const (
	classAll = iota
	classSubset
	classExpr
	classMinChange
	numClasses
)

// predicates are the expr filters and their native twins, which the
// checker evaluates independently of the expr VM.
var predicates = []struct {
	expr string
	pass func(v int64) bool
}{
	{"value % 2 == 0", func(v int64) bool { return v%2 == 0 }},
	{"value % 3 != 0", func(v int64) bool { return v%3 != 0 }},
}

// settleResidue makes every settle value pass every predicate (even and
// not a multiple of three).
const settleResidue = 2

// subSpec is one subscriber's filter and its native equivalent.
type subSpec struct {
	class  int
	filter subscribe.Filter
	in     [fanoutSensors]bool // sensor subset (all for other classes)
	pred   int                 // predicate index for classExpr
}

// passesStatic is the filter minus min-change, which depends on history.
func (s *subSpec) passesStatic(sensor int, v int64) bool {
	if !s.in[sensor] {
		return false
	}
	return s.class != classExpr || predicates[s.pred].pass(v)
}

// fanSensor is a settable sensor: a delta sets its value.
type fanSensor struct {
	name  string
	mu    sync.Mutex
	value float64
}

func (s *fanSensor) set(v float64) {
	s.mu.Lock()
	s.value = v
	s.mu.Unlock()
}

func (s *fanSensor) GetValue() (probe.Reading, error) {
	s.mu.Lock()
	v := s.value
	s.mu.Unlock()
	return probe.Reading{Sensor: s.name, Kind: "temperature", Unit: "celsius", Value: v, Timestamp: time.Now()}, nil
}

type fanSubscriber struct {
	spec    subSpec
	client  *remote.SubscriberClient
	lastSeq uint64
	last    [fanoutSensors]atomic.Int64 // last value received per sensor
	// simLast is the checker's model of the hub's min-change state, valid
	// between a settle and the next loaded phase (single-in-flight only).
	simLast [fanoutSensors]int64

	updates, readings, dropped atomic.Int64

	mu  sync.Mutex
	lat []float64 // ms from due time, for deltas that had one
}

type subscribeFanout struct {
	in     *instr
	base   time.Time
	fault  string
	rng    *rand.Rand
	subs   []*fanSubscriber
	canary *fanSubscriber

	sensors []*fanSensor
	sources []*subscribe.Source
	hub     *subscribe.Hub
	server  *srpc.Server
	clients []*srpc.Client
	px      proxies
	names   map[string]int
	recv    sync.WaitGroup

	next     int64   // next delta number, owned by the publishing goroutine
	sensorOf []uint8 // seeded sensor of each delta
	due      []atomic.Int64
	// Scheduled (open-loop) deltas form one chain per sensor, newest
	// first: schedHead is the newest, prevSched links each to the one
	// before it on the same sensor (-1 ends the chain).
	schedHead [fanoutSensors]atomic.Int64
	prevSched []atomic.Int64
	timeout   time.Duration
	closing   atomic.Bool

	canarySig  chan struct{}
	canaryLast atomic.Int64

	// Single-in-flight tracking of one probe delta.
	probe     atomic.Int64
	probeWant atomic.Int64
	probeGot  atomic.Int64
	probeDone chan struct{}
	firstRecv atomic.Int64
	lastRecv  atomic.Int64
	firstUS   []float64
	spreadMS  []float64

	failures atomic.Int64
	wrong    violations
}

func setupSubscribeFanout(cfg config) (deployment, error) {
	d := &subscribeFanout{
		in:        cfg.in,
		base:      time.Now(),
		fault:     cfg.fault,
		rng:       rand.New(rand.NewSource(cfg.seed)),
		names:     make(map[string]int),
		due:       make([]atomic.Int64, maxDeltas),
		prevSched: make([]atomic.Int64, maxDeltas),
		sensorOf:  make([]uint8, maxDeltas),
		timeout:   convergeTimeout,
		canarySig: make(chan struct{}, 1),
		probeDone: make(chan struct{}, 1),
	}
	if cfg.in != nil {
		d.base = cfg.in.base
	}
	for i := range d.sensorOf {
		d.sensorOf[i] = uint8(d.rng.Intn(fanoutSensors))
	}
	if cfg.fault != "" {
		d.timeout = 2 * time.Second // a planted fault fails fast
	}
	d.probe.Store(-1)
	for s := range d.schedHead {
		d.schedHead[s].Store(-1)
	}
	if err := d.build(fanoutSubscribers); err != nil {
		d.close()
		return nil, err
	}
	if err := d.settle(false); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *subscribeFanout) now() int64 { return int64(time.Since(d.base)) }

func (d *subscribeFanout) build(n int) error {
	d.hub = subscribe.NewHub()
	for s := 0; s < fanoutSensors; s++ {
		sensor := &fanSensor{name: fmt.Sprintf("rtd-%d", s)}
		d.names[sensor.name] = s
		d.sensors = append(d.sensors, sensor)
		src := subscribe.NewSource(d.hub, &tracedReader{Reader: sensor, in: d.in})
		src.Start()
		d.sources = append(d.sources, src)
	}
	server, px, err := serveBehindProxy()
	if err != nil {
		return err
	}
	d.server = server
	d.px = append(d.px, px)
	remote.ServeSubscriptions(d.server, d.hub)
	for c := 0; c < clientConns; c++ {
		client, err := srpc.Dial(px.addr(), callTimeout)
		if err != nil {
			return err
		}
		d.clients = append(d.clients, client)
	}
	for i := 0; i < n; i++ {
		sub := &fanSubscriber{spec: d.newSpec(i == 0)}
		for s := range sub.last {
			sub.last[s].Store(-1)
		}
		sc, err := remote.Subscribe(d.clients[i%clientConns], sub.spec.filter)
		if err != nil {
			return err
		}
		sub.client = sc
		d.subs = append(d.subs, sub)
		d.recv.Add(1)
		go d.receive(i, sub)
	}
	d.canary = d.subs[0]
	deadline := time.Now().Add(d.timeout)
	for d.hub.Count() != n {
		if time.Now().After(deadline) {
			return fmt.Errorf("hub holds %d of %d subscriptions", d.hub.Count(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// newSpec draws a seeded filter; the canary takes every reading.
func (d *subscribeFanout) newSpec(canary bool) subSpec {
	spec := subSpec{class: classAll}
	if !canary {
		spec.class = d.rng.Intn(numClasses)
	}
	for s := range spec.in {
		spec.in[s] = true
	}
	switch spec.class {
	case classSubset:
		spec.in = [fanoutSensors]bool{}
		for _, s := range d.rng.Perm(fanoutSensors)[:2+d.rng.Intn(3)] {
			spec.in[s] = true
			spec.filter.Sensors = append(spec.filter.Sensors, d.sensors[s].name)
		}
	case classExpr:
		spec.pred = d.rng.Intn(len(predicates))
		spec.filter.Expr = predicates[spec.pred].expr
	case classMinChange:
		spec.filter.MinChange = minChange
	}
	return spec
}

// receive is one subscriber's consumer loop.
func (d *subscribeFanout) receive(i int, sub *fanSubscriber) {
	defer d.recv.Done()
	for {
		u, err := sub.client.Recv(0)
		if err != nil {
			if !d.closing.Load() {
				d.failures.Add(1)
				d.wrong.add("subscriber %d: stream failed: %v", i, err)
			}
			return
		}
		now := d.now()
		d.in.add(cntCalls, 1)
		if d.fault == faultSeqRegress && i == 1 && sub.updates.Load()%50 == 49 {
			u.SeqNo-- // the planted fault: a replayed frame
		}
		if u.SeqNo <= sub.lastSeq {
			d.wrong.add("subscriber %d: SeqNo %d after %d", i, u.SeqNo, sub.lastSeq)
		}
		sub.lastSeq = u.SeqNo
		sub.updates.Add(1)
		sub.readings.Add(int64(len(u.Readings)))
		sub.dropped.Add(int64(u.Dropped))
		for _, r := range u.Readings {
			s, ok := d.names[r.Sensor]
			v := int64(r.Value)
			if !ok || float64(v) != r.Value || v < 0 || v >= maxDeltas {
				d.wrong.add("subscriber %d: unexpected reading %s=%v", i, r.Sensor, r.Value)
				continue
			}
			if !sub.spec.passesStatic(s, v) {
				d.wrong.add("subscriber %d: got %s=%d, which its filter rejects", i, r.Sensor, v)
			}
			if last := sub.last[s].Load(); d.schedHead[s].Load() > last {
				d.chargeSuperseded(sub, s, last, v, now)
			}
			sub.last[s].Store(v)
			if due := d.due[v].Load(); due != 0 {
				sub.mu.Lock()
				sub.lat = append(sub.lat, float64(now-due)/1e6)
				sub.mu.Unlock()
			}
			if v == d.probe.Load() {
				d.firstRecv.CompareAndSwap(0, now)
				for {
					l := d.lastRecv.Load()
					if now <= l || d.lastRecv.CompareAndSwap(l, now) {
						break
					}
				}
				if d.probeGot.Add(1) == d.probeWant.Load() {
					d.probeDone <- struct{}{}
				}
			}
			if sub == d.canary {
				d.canaryLast.Store(v)
				select {
				case d.canarySig <- struct{}{}:
				default:
				}
			}
		}
	}
}

// chargeSuperseded samples the scheduled deltas on sensor s after the
// subscriber's previous receipt last and before this one, v, that its
// filter would have delivered. The Source coalesced them or the hub
// conflated them (latest value wins), so v arrived in their place: each
// is charged from its own due time to now. Min-change is modelled as if
// every such delta had been offered, starting from last.
func (d *subscribeFanout) chargeSuperseded(sub *fanSubscriber, s int, last, v, now int64) {
	var buf [16]int64
	skipped := buf[:0] // newest first
	for u := d.schedHead[s].Load(); u > last; u = d.prevSched[u].Load() {
		if u < v {
			skipped = append(skipped, u)
		}
	}
	ref := last
	for i := len(skipped) - 1; i >= 0; i-- {
		u := skipped[i]
		if !sub.spec.passesStatic(s, u) {
			continue
		}
		if sub.spec.class == classMinChange && ref >= 0 && u-ref < minChange {
			continue
		}
		ref = u
		sub.mu.Lock()
		sub.lat = append(sub.lat, float64(now-d.due[u].Load())/1e6)
		sub.mu.Unlock()
	}
}

// schedule records delta v's due time and, for a scheduled delta, links
// it into its sensor's chain before any subscriber can receive it.
func (d *subscribeFanout) schedule(v int64, s int, due int64) {
	d.due[v].Store(due)
	if due != 0 {
		d.prevSched[v].Store(d.schedHead[s].Load())
		d.schedHead[s].Store(v)
	}
}

// publish issues the next delta: a seeded sensor takes the delta's
// number as its value. due, when non-zero, is the delta's due time on
// the deployment clock. It returns the delta number.
func (d *subscribeFanout) publish(due int64) (int64, error) {
	v := d.next
	if v >= maxDeltas {
		return 0, fmt.Errorf("delta budget of %d exhausted", maxDeltas)
	}
	d.next++
	s := d.sensorOf[v]
	d.schedule(v, int(s), due)
	d.sensors[s].set(float64(v))
	d.sources[s].Notify()
	return v, nil
}

// settle sets every sensor to a fresh value that passes every filter
// (well past min-change and any predicate) and waits until each
// subscriber holds the value of every sensor in its subset. Since
// updates arrive in order, a settled fleet has received everything
// published before. It also resets the min-change model. The final
// settle is the end-of-run check that every subscriber holds each
// sensor's final value.
func (d *subscribeFanout) settle(final bool) error {
	base := d.next + 2*minChange
	base += (settleResidue - base%6 + 6) % 6
	if base+6*fanoutSensors >= maxDeltas {
		return fmt.Errorf("delta budget of %d exhausted", maxDeltas)
	}
	want := make([]int64, fanoutSensors)
	for s := range d.sensors {
		want[s] = base + int64(6*s)
		if final && d.fault == faultFinalValue && s == fanoutSensors-1 {
			d.sources[s].Stop() // the planted fault: one sensor's last value never leaves
		}
		d.sensors[s].set(float64(want[s]))
		d.sources[s].Notify()
	}
	d.next = base + 6*fanoutSensors
	deadline := time.Now().Add(d.timeout)
	for i, sub := range d.subs {
		for s := range want {
			for sub.spec.in[s] && sub.last[s].Load() != want[s] {
				if time.Now().After(deadline) {
					d.failures.Add(1)
					d.wrong.add("subscriber %d holds %d for %s, want the final %d", i, sub.last[s].Load(), d.sensors[s].name, want[s])
					return nil
				}
				time.Sleep(200 * time.Microsecond)
			}
			if sub.spec.class == classMinChange {
				sub.simLast[s] = want[s]
			}
		}
	}
	return nil
}

// openLoop publishes deltas on schedule, then settles; the latency
// samples are the (delta, subscriber) deliveries of scheduled deltas,
// timed from each delta's due time. A delivery superseded by a later
// value of the same sensor is timed to the arrival of that value.
func (d *subscribeFanout) openLoop(rate float64, dur time.Duration) loadResult {
	for _, sub := range d.subs {
		sub.mu.Lock()
		sub.lat = sub.lat[:0]
		sub.mu.Unlock()
	}
	fail0 := d.failures.Load()
	res := openLoop(rate, dur, 1, func(_ int, due time.Time) error {
		_, err := d.publish(int64(due.Sub(d.base)))
		return err
	})
	if err := d.settle(false); err != nil {
		res.failed++
	}
	res.attempted += fanoutSensors
	res.lat = res.lat[:0]
	for _, sub := range d.subs {
		sub.mu.Lock()
		res.lat = append(res.lat, sub.lat...)
		sub.mu.Unlock()
	}
	for i := fail0; i < d.failures.Load(); i++ {
		res.lat = append(res.lat, math.Inf(1))
		res.failed++
	}
	return res
}

// closedLoop publishes a delta, waits for the canary to receive it, and
// repeats; the fleet must converge before the clock stops.
func (d *subscribeFanout) closedLoop(dur time.Duration) (int, int, time.Duration) {
	fail0 := d.failures.Load()
	start := time.Now()
	deadline := start.Add(dur)
	ops, failed := 0, 0
	for time.Now().Before(deadline) {
		v, err := d.publish(0)
		ops++
		if err != nil || !d.awaitCanary(v) {
			failed++
			break
		}
	}
	if err := d.settle(false); err != nil {
		failed++
	}
	failed += int(d.failures.Load() - fail0)
	return ops, failed, time.Since(start)
}

func (d *subscribeFanout) awaitCanary(v int64) bool {
	timer := time.NewTimer(d.timeout)
	defer timer.Stop()
	for d.canaryLast.Load() < v {
		select {
		case <-d.canarySig:
		case <-timer.C:
			return false
		}
	}
	return true
}

// single publishes one delta with nothing else in flight and waits until
// every subscriber whose filter passes it has received it.
func (d *subscribeFanout) single(int) error {
	v := d.next
	if v >= maxDeltas {
		return fmt.Errorf("delta budget of %d exhausted", maxDeltas)
	}
	s := int(d.sensorOf[v])
	want := int64(0)
	for _, sub := range d.subs {
		if !sub.spec.passesStatic(s, v) {
			continue
		}
		if sub.spec.class == classMinChange {
			if abs64(v-sub.simLast[s]) < minChange {
				continue
			}
			sub.simLast[s] = v
		}
		want++
	}
	d.probeGot.Store(0)
	d.probeWant.Store(want)
	d.firstRecv.Store(0)
	d.lastRecv.Store(0)
	d.probe.Store(v)
	start := d.now()
	if _, err := d.publish(0); err != nil {
		return err
	}
	timer := time.NewTimer(d.timeout)
	defer timer.Stop()
	select {
	case <-d.probeDone:
	case <-timer.C:
		d.probe.Store(-1)
		d.failures.Add(1)
		return fmt.Errorf("delta %d reached %d of %d subscribers", v, d.probeGot.Load(), want)
	}
	d.probe.Store(-1)
	first, last := d.firstRecv.Load(), d.lastRecv.Load()
	if d.in != nil && d.in.tracing.Load() {
		// Everything from the notify to the last receipt is the push
		// plane (hub fan-out, stream writer, wire, decode); the Source's
		// evaluation span nests inside it.
		d.in.record(span{name: "subscribe.fanout", layer: layerSubscribe, trace: d.in.trace.Load(), start: start, end: last})
	} else {
		d.firstUS = append(d.firstUS, float64(first-start)/1e3)
		d.spreadMS = append(d.spreadMS, float64(last-first)/1e6)
	}
	return nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func (d *subscribeFanout) wireBytes() int64 { return d.px.bytes() }

func (d *subscribeFanout) snapshot() map[string]float64 {
	var updates, readings, dropped int64
	for _, sub := range d.subs {
		updates += sub.updates.Load()
		readings += sub.readings.Load()
		dropped += sub.dropped.Load()
	}
	return map[string]float64{
		"published": float64(d.hub.Published()),
		"updates":   float64(updates),
		"readings":  float64(readings),
		"dropped":   float64(dropped),
	}
}

func (d *subscribeFanout) layerMetrics(delta map[string]float64, deltas float64) map[string]float64 {
	return map[string]float64{
		"subscribe.evals_per_delta":     delta["evals"] / deltas,
		"subscribe.coalesced_ratio":     1 - delta["published"]/deltas,
		"subscribe.dropped_ratio":       ratio(delta["dropped"], delta["readings"]+delta["dropped"]),
		"subscribe.readings_per_update": ratio(delta["readings"], delta["updates"]),
	}
}

func (d *subscribeFanout) singleMetrics() map[string]float64 {
	return map[string]float64{
		"subscribe.first_recv_us_p50":    median(d.firstUS),
		"subscribe.fanout_spread_ms_p50": median(d.spreadMS),
	}
}

// check runs the final settle, then reports SeqNo regressions, readings
// a filter should have rejected, and subscribers that do not hold each
// sensor's final value.
func (d *subscribeFanout) check(int) []string {
	if err := d.settle(true); err != nil {
		d.wrong.add("final settle: %v", err)
	}
	return d.wrong.list()
}

func (d *subscribeFanout) close() {
	d.closing.Store(true)
	for _, c := range d.clients {
		c.Close()
	}
	d.recv.Wait()
	for _, src := range d.sources {
		src.Stop()
	}
	// The server first: its Close waits for the stream handlers, so every
	// Hub.Subscribe they made happens before Hub.Close waits for the
	// pumps (Hub.Close racing a Subscribe still in flight is a data race
	// inside the hub).
	if d.server != nil {
		d.server.Close()
	}
	if d.hub != nil {
		d.hub.Close()
	}
	d.px.close()
}
