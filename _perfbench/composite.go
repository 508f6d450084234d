package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"sensorcer/internal/remote"
	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/srpc"
)

// composite-read: the paper's Fig. 3 two-level fusion tree. Sixteen ESPs
// over seeded replay probes feed four mid-level CSPs computing
// (a+b+c+d)/4, and a top CSP averages the four mids. Every provider has
// its own srpc server behind a counting proxy, and every tree edge is an
// AccessorClient, so a top read crosses 21 hops. Most reads target the
// top composite; a seeded minority reads one mid composite directly.
const (
	espCount     = 16
	midCount     = 4
	seriesLen    = 4    // replay period of each ESP probe
	topShare     = 0.8  // share of reads that target the top composite
	opTableSize  = 4096 // seeded op table, cycled
	callTimeout  = 10 * time.Second
	compositeExp = "(a+b+c+d)/4"
)

// Every probe value is base + k·2^-(8+2j) for ESP j at replay index k:
// the base is a seeded multiple of 2^-4 and the low bits carry the
// index in a two-bit field of its own. Sums of such values are exact in
// float64 and the averages divide by powers of two, so a composite value
// can be decoded into the index each ESP served and checked exactly
// against the value recomputed from the seeded series.
const fieldShift = 38 // 2^38 scales the lowest field to bit 0

type compositeRead struct {
	in      *instr
	series  [espCount][seriesLen]float64
	targets []int // per op: -1 top, else the mid composite read directly

	esps    []*sensor.ESP
	servers []*srpc.Server
	clients []*remote.AccessorClient
	px      proxies
	// calls[0] are the generator's stubs to the top composite, calls[1+m]
	// to mid composite m; nproc connections per server.
	calls [1 + midCount][]sensor.DataAccessor

	wrong violations

	mu   sync.Mutex
	seen [espCount][seriesLen]int64
}

func setupCompositeRead(cfg config) (deployment, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	d := &compositeRead{in: cfg.in}
	for j := range d.series {
		for k := range d.series[j] {
			base := float64(1+rng.Intn(64*16-1)) / 16
			d.series[j][k] = base + math.Ldexp(float64(k), -(8+2*j))
		}
	}
	d.targets = make([]int, opTableSize)
	for i := range d.targets {
		d.targets[i] = -1
		if rng.Float64() >= topShare {
			d.targets[i] = rng.Intn(midCount)
		}
	}
	if err := d.build(cfg); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func espName(j int) string { return fmt.Sprintf("spot-%02d", j) }
func midName(m int) string { return fmt.Sprintf("zone-%d", m) }

const topName = "site"

// serve exports acc on a fresh srpc server behind a counting proxy.
func (d *compositeRead) serve(name, spanName string, acc sensor.DataAccessor) (remote.ProxyDesc, error) {
	server, px, err := serveBehindProxy()
	if err != nil {
		return remote.ProxyDesc{}, err
	}
	d.servers = append(d.servers, server)
	d.px = append(d.px, px)
	desc := remote.ServeAccessor(server, name, &servedAccessor{
		DataAccessor: acc, in: d.in, name: spanName, key: "csp:" + name, parentKey: "call:" + name,
	})
	desc.Locator = px.addr()
	return desc, nil
}

// dial makes a traced stub for one tree edge; owner is the composite
// making the call ("" for the load generator).
func (d *compositeRead) dial(desc remote.ProxyDesc, owner string) (sensor.DataAccessor, error) {
	ac, err := remote.NewAccessorClient(desc, callTimeout)
	if err != nil {
		return nil, err
	}
	d.clients = append(d.clients, ac)
	parent := ""
	if owner != "" {
		parent = "csp:" + owner
	}
	return &callAccessor{DataAccessor: ac, in: d.in, key: "call:" + desc.Service, parentKey: parent}, nil
}

func (d *compositeRead) build(cfg config) error {
	espDescs := make([]remote.ProxyDesc, espCount)
	for j := 0; j < espCount; j++ {
		p := probe.NewReplayProbe(espName(j), "temperature", "celsius", d.series[j][:], true, nil)
		esp := sensor.NewESP(espName(j), p)
		d.esps = append(d.esps, esp)
		desc, err := d.serve(espName(j), "sensor.esp", esp)
		if err != nil {
			return err
		}
		espDescs[j] = desc
	}
	top := sensor.NewCSP(topName)
	midDescs := make([]remote.ProxyDesc, midCount)
	for m := 0; m < midCount; m++ {
		var opts []sensor.CSPOption
		if cfg.fault == faultCompositeCache && m == 0 {
			opts = append(opts, sensor.WithCacheTTL(time.Hour))
		}
		mid := sensor.NewCSP(midName(m), opts...)
		for j := m * 4; j < m*4+4; j++ {
			child, err := d.dial(espDescs[j], midName(m))
			if err != nil {
				return err
			}
			if _, err := mid.AddChild(child); err != nil {
				return err
			}
		}
		expr := compositeExp
		if cfg.fault == faultCompositeWiring && m == midCount-1 {
			expr = "(a+b+d+d)/4"
		}
		if err := mid.SetExpression(expr); err != nil {
			return err
		}
		desc, err := d.serve(midName(m), "sensor.csp", mid)
		if err != nil {
			return err
		}
		midDescs[m] = desc
		child, err := d.dial(desc, topName)
		if err != nil {
			return err
		}
		if _, err := top.AddChild(child); err != nil {
			return err
		}
	}
	if err := top.SetExpression(compositeExp); err != nil {
		return err
	}
	topDesc, err := d.serve(topName, "sensor.csp", top)
	if err != nil {
		return err
	}
	for c := 0; c < clientConns; c++ {
		acc, err := d.dial(topDesc, "")
		if err != nil {
			return err
		}
		d.calls[0] = append(d.calls[0], acc)
		for m := 0; m < midCount; m++ {
			acc, err := d.dial(midDescs[m], "")
			if err != nil {
				return err
			}
			d.calls[1+m] = append(d.calls[1+m], acc)
		}
	}
	return nil
}

// do performs read k and checks its value.
func (d *compositeRead) do(k int) error {
	target := d.targets[k%len(d.targets)]
	r, err := d.calls[target+1][k%clientConns].GetValue()
	if err != nil {
		return err
	}
	d.verify(target, r.Value)
	return nil
}

// verify decodes the replay index each ESP under target served and
// checks that the value equals the recomputed composite exactly.
func (d *compositeRead) verify(target int, v float64) {
	lo, hi, scale := 0, espCount, 16.0
	if target >= 0 {
		lo, hi, scale = target*4, target*4+4, 4.0
	}
	sum := v * scale
	n := math.Ldexp(sum, fieldShift)
	var idx [espCount]int
	want := 0.0
	if n == math.Trunc(n) && n < 1<<53 {
		bits := uint64(n)
		for j := lo; j < hi; j++ {
			idx[j] = int(bits>>(fieldShift-8-2*j)) & (seriesLen - 1)
			want += d.series[j][idx[j]]
		}
	}
	if want != sum {
		d.wrong.add("read of %s = %v, not a composite of the replay series", targetName(target), v)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for j := lo; j < hi; j++ {
		d.seen[j][idx[j]]++
	}
}

func targetName(target int) string {
	if target < 0 {
		return topName
	}
	return midName(target)
}

func (d *compositeRead) openLoop(rate float64, dur time.Duration) loadResult {
	return openLoop(rate, dur, openLoopWorkers, func(k int, _ time.Time) error { return d.do(k) })
}

func (d *compositeRead) closedLoop(dur time.Duration) (int, int, time.Duration) {
	return closedLoop(dur, clientConns, d.do)
}

func (d *compositeRead) single(k int) error { return d.do(k) }

func (d *compositeRead) wireBytes() int64 { return d.px.bytes() }

func (d *compositeRead) snapshot() map[string]float64 { return nil }

func (d *compositeRead) layerMetrics(map[string]float64, float64) map[string]float64 { return nil }

func (d *compositeRead) singleMetrics() map[string]float64 { return nil }

// check requires every read to have verified, and every ESP's replay
// index to have advanced exactly once per probe read: reads decoded to
// each index k of ESP j must number n/4, plus one for k < n%4, where n
// is the ESP's read count. A cached or duplicated child value breaks
// the tally even when the value itself decodes. A failed read may have
// consumed probe values that nobody decoded, which leaves the tally
// unverifiable, so any failed read is a violation too.
func (d *compositeRead) check(failed int) []string {
	out := d.wrong.list()
	if failed > 0 {
		return append(out, fmt.Sprintf("%d reads failed, so the per-ESP replay tally cannot be checked", failed))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for j, esp := range d.esps {
		n := int64(esp.Store().Total())
		for k := int64(0); k < seriesLen; k++ {
			want := n / seriesLen
			if k < n%seriesLen {
				want++
			}
			if d.seen[j][k] != want {
				out = append(out, fmt.Sprintf("%s: replay index %d decoded %d times, want %d of %d reads",
					espName(j), k, d.seen[j][k], want, n))
				break
			}
		}
	}
	return out
}

func (d *compositeRead) close() {
	for _, c := range d.clients {
		c.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	d.px.close()
	for _, e := range d.esps {
		_ = e.Close()
	}
}
