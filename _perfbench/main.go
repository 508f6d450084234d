// Command perfbench is the repository's end-to-end benchmark. Each
// workload stands up a deployment in one process with every service hop
// over loopback srpc, drives it from a seeded generator, checks the
// outputs and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, from untraced runs;
// with -trace 1 they are the per-layer ones, from a counting phase under
// load and a traced single-in-flight phase. See README.md.
//
// Usage:
//
//	perfbench -workload composite-read -seed 1 -seconds 10 -trace 0 [-out results.jsonl]
//	perfbench compare -bounds BENCHMARK.json base.jsonl head.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The load generator's resources: at most nproc client connections per
// server and nproc closed-loop clients, as on the 2-core machine the
// benchmark was defined on. The open-loop generator runs a fixed pool of
// workers over those connections, so it lags only when every worker is
// blocked.
const (
	clientConns     = 2
	openLoopWorkers = 16
)

// config is what a workload's setup receives.
type config struct {
	seed    int64
	workdir string // scratch directory for WALs, removed after the run
	in      *instr // nil in untraced runs
	fault   string // planted fault for the self-test; "" in real runs
}

// deployment is one stood-up workload.
type deployment interface {
	openLoop(rate float64, d time.Duration) loadResult
	closedLoop(d time.Duration) (ops, failed int, elapsed time.Duration)
	// single runs op k with nothing else in flight and returns once it
	// has fully completed.
	single(k int) error
	wireBytes() int64
	// snapshot reads the deployment's own cumulative counters;
	// layerMetrics turns their growth over the counting phase (ops ops)
	// into per-layer metrics; singleMetrics reports what the
	// deployment measured itself during the single-in-flight phases.
	snapshot() map[string]float64
	layerMetrics(delta map[string]float64, ops float64) map[string]float64
	singleMetrics() map[string]float64
	// check returns the correctness violations seen so far and at the
	// end of the run; failed is the number of failed ops.
	check(failed int) []string
	close()
}

type workload struct {
	name string
	// rate is the open-loop offered rate in ops/s.
	rate float64
	// warm is the number of single-in-flight ops that warm a fresh
	// deployment; set-up time includes them.
	warm  int
	setup func(cfg config) (deployment, error)
}

var workloads = []workload{
	{name: "composite-read", rate: 400, warm: 200, setup: setupCompositeRead},
	{name: "replicated-exertion", rate: 60, warm: 50, setup: setupReplicatedExertion},
	{name: "subscribe-fanout", rate: 40, warm: 5, setup: setupSubscribeFanout},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRuns is how many times an end-to-end run stands its deployment
// up; setup_s is the median. rounds is how many open-loop segments and
// closed-loop windows an end-to-end run alternates.
const (
	setupRuns = 5
	rounds    = 10
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Unbounded metrics are printed and recorded but kept out of the
	// result line: their run-to-run spread on the machine the benchmark
	// was defined on exceeds any bound BENCHMARK.json may set.
	Unbounded map[string]metric `json:"-"`
}

// record is one result with its context, as written by -out and read by
// compare.
type record struct {
	Workload string      `json:"workload"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`
	// HostStealPct is the machine's CPU steal time over the run as a
	// share of its CPU time (-1 where /proc/stat is unavailable).
	HostStealPct float64  `json:"host_steal_pct"`
	Violations   []string `json:"violations,omitempty"`
	result
	Unbounded map[string]metric `json:"unbounded,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: composite-read, replicated-exertion or subscribe-fanout")
	seed := fs.Int64("seed", 1, "generator seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the per-layer (counting and traced) phases instead of the end-to-end ones")
	out := fs.String("out", "", "append the result with its environment to this JSON-lines file")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for WALs")
	root := fs.String("root", ".", "source root, whose git commit goes into the environment block")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	env := captureEnv(*root, dir, *seed)

	cfg := config{seed: *seed, workdir: dir}
	dur := time.Duration(*seconds) * time.Second
	var res result
	var violations []string
	var err error
	steal0, stealOK := stealTicks()
	start := time.Now()
	if *trace == 1 {
		res, violations, err = runTraced(w, cfg, dur)
	} else {
		res, violations, err = runEndToEnd(w, cfg, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	// Steal time is the host's, not the program's: a high share marks the
	// run's figures as host-bound, as loadgen lag marks them generator-bound.
	stealPct := -1.0
	if steal1, ok := stealTicks(); ok && stealOK {
		stealPct = float64(steal1-steal0) / (time.Since(start).Seconds() * 100 * float64(runtime.NumCPU())) * 100
		fmt.Printf("host CPU steal during the run: %.1f%% of the machine's CPU time\n", stealPct)
	}
	for _, v := range violations {
		fmt.Printf("violation: %s\n", v)
	}
	printHuman(w.name, res)
	if *out != "" {
		r := record{Workload: w.name, Trace: *trace == 1, Env: env, HostStealPct: stealPct,
			Violations: violations, result: res, Unbounded: res.Unbounded}
		if err := appendRecord(*out, r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runEndToEnd stands the deployment up setupRuns times (setup_s is the
// median), then measures open-loop latency and closed-loop throughput and
// per-op costs, untraced.
func runEndToEnd(w workload, cfg config, dur time.Duration) (result, []string, error) {
	var setups []float64
	var dep deployment
	for i := 0; i < setupRuns; i++ {
		c := cfg
		c.workdir = filepath.Join(cfg.workdir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		d, err := standUp(w, c)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRuns-1 {
			d.close()
			continue
		}
		dep = d
	}
	defer dep.close()

	// The run alternates open-loop segments (2/3 of the time) with
	// closed-loop windows (1/3). Latency pools the open-loop samples;
	// throughput and the per-op costs are medians over the windows. Spread
	// over the whole run, the windows sample the machine at several
	// moments, so a disturbance of a few seconds moves one of them.
	var open loadResult
	var tput, cpuPer, bytesPer []float64
	ops, failed := 0, 0
	for i := 0; i < rounds; i++ {
		seg := dep.openLoop(w.rate, dur*2/3/rounds)
		open.lat = append(open.lat, seg.lat...)
		open.lag = append(open.lag, seg.lag...)
		open.attempted += seg.attempted
		failed += seg.failed

		bytes0, cpu0 := dep.wireBytes(), cpuTime()
		n, f, elapsed := dep.closedLoop(dur / 3 / rounds)
		cpu, bytes := cpuTime()-cpu0, dep.wireBytes()-bytes0
		if n == 0 {
			return result{}, nil, fmt.Errorf("closed-loop window completed no ops")
		}
		ops += n
		failed += f
		tput = append(tput, float64(n)/elapsed.Seconds())
		cpuPer = append(cpuPer, float64(cpu)/float64(time.Microsecond)/float64(n))
		bytesPer = append(bytesPer, float64(bytes)/float64(n))
	}

	violations := dep.check(failed)
	res := result{
		Correct:   len(violations) == 0,
		Attempted: open.attempted + ops,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":           {median(setups), "s"},
			"latency_p50_ms":    {quantile(open.lat, 0.50), "ms"},
			"throughput_ops_s":  {median(tput), "1/s"},
			"cpu_us_per_op":     {median(cpuPer), "us"},
			"wire_bytes_per_op": {median(bytesPer), "bytes"},
			"peak_rss_mb":       {peakRSSMB(), "MB"},
		},
		Unbounded: map[string]metric{
			"latency_p99_ms": {quantile(open.lat, 0.99), "ms"},
		},
	}
	fmt.Printf("open loop: %d ops at %.0f/s, %d latency samples (p90 %.3f, p99 %.3f, p99.9 %.3f, max %.3f ms), loadgen lag p99 %.3f ms\n",
		open.attempted, w.rate, len(open.lat), quantile(open.lat, 0.9), quantile(open.lat, 0.99),
		quantile(open.lat, 0.999), quantile(open.lat, 1), quantile(open.lag, 0.99))
	fmt.Printf("closed loop: %d ops in %d windows, throughput per window %.4g 1/s\n", ops, rounds, tput)
	fmt.Printf("error_rate %.6f ratio (%d failed of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, violations, nil
}

func standUp(w workload, cfg config) (deployment, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	d, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", w.name, err)
	}
	for k := 0; k < w.warm; k++ {
		if err := d.single(k); err != nil {
			d.close()
			return nil, fmt.Errorf("warming %s: %w", w.name, err)
		}
	}
	return d, nil
}

// runTraced measures the per-layer metrics: counts and ratios from a
// counting phase at the open-loop rate, then the same single-in-flight
// op loop untraced and traced, whose difference is trace.overhead_pct
// and whose traced spans give each layer's times and time shares.
func runTraced(w workload, cfg config, dur time.Duration) (result, []string, error) {
	in := newInstr()
	cfg.in = in
	dep, err := standUp(w, cfg)
	if err != nil {
		return result{}, nil, err
	}
	defer dep.close()

	// Counting phase.
	snap0 := snapshot(dep, in)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	in.counting.Store(true)
	load := dep.openLoop(w.rate, dur*4/10)
	in.counting.Store(false)
	runtime.ReadMemStats(&ms1)
	snap1 := snapshot(dep, in)
	delta := make(map[string]float64)
	for k, v := range snap1 {
		delta[k] = v - snap0[k]
	}
	ops := float64(load.attempted)
	vals := map[string]float64{
		"remote.calls_per_op":      delta["calls"] / ops,
		"srpc.wire_bytes_per_call": ratio(delta["wire_bytes"], delta["calls"]),
		"go.alloc_bytes_per_op":    float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops,
		"go.gc_cycles_per_kop":     float64(ms1.NumGC-ms0.NumGC) * 1000 / ops,
		"loadgen.lag_p99_ms":       quantile(load.lag, 0.99),
	}
	for k, v := range dep.layerMetrics(delta, ops) {
		vals[k] = v
	}

	// Single-in-flight phases: untraced, then traced.
	k := 1 << 20
	failed := load.failed
	attempted := load.attempted
	singleFor := func(d time.Duration, each func(k int) error) []float64 {
		var lat []float64
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			start := time.Now()
			attempted++
			if err := each(k); err != nil {
				failed++
			} else {
				lat = append(lat, ms(time.Since(start)))
			}
			k++
		}
		return lat
	}
	plain := singleFor(dur*3/10, dep.single)
	var windows []opWindow
	in.tracing.Store(true)
	traced := singleFor(dur*3/10, func(k int) error {
		id := int64(len(windows) + 1)
		in.trace.Store(id)
		start := in.now()
		err := dep.single(k)
		windows = append(windows, opWindow{trace: id, start: start, end: in.now()})
		return err
	})
	in.tracing.Store(false)
	spans := in.takeSpans()
	vals["trace.overhead_pct"] = (median(traced)/median(plain) - 1) * 100
	for k, v := range dep.singleMetrics() {
		vals[k] = v
	}

	var trees []opTree
	shares := make(map[string]int64)
	var total int64
	eachOp(windows, spans, func(win opWindow, overlapping []span) {
		trees = append(trees, buildTree(win, overlapping))
		for layer, ns := range attribute(win, overlapping) {
			shares[layer] += ns
		}
		total += win.dur()
	})
	samples := traceSamples(trees)
	for name, xs := range samples {
		vals[name+"_p50"] = median(xs)
	}
	vals["repl.ship_rtt_us_p99"] = quantile(samples["repl.ship_rtt_us"], 0.99)
	for _, layer := range append(attributedLayers, layerOp) {
		name := "share." + layer + "_pct"
		if layer == layerOp {
			name = "share.unattributed_pct"
		}
		vals[name] = 100 * ratio(float64(shares[layer]), float64(total))
	}
	fmt.Printf("traced: %d ops (%d spans), untraced single-in-flight: %d ops, counting phase: %d ops\n",
		len(windows), len(spans), len(plain), load.attempted)

	violations := dep.check(failed)
	res := result{Correct: len(violations) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return res, violations, nil
}

func snapshot(dep deployment, in *instr) map[string]float64 {
	s := map[string]float64{
		"calls":      float64(in.count(cntCalls)),
		"wire_bytes": float64(dep.wireBytes()),
		"space_ops":  float64(in.count(cntSpaceOps)),
		"ships":      float64(in.count(cntShips)),
		"shipped":    float64(in.count(cntShipped)),
		"evals":      float64(in.count(cntEvals)),
		"tasks":      float64(in.count(cntTasks)),
	}
	for k, v := range dep.snapshot() {
		s[k] = v
	}
	return s
}

// perLayerMetrics is the traced run's report, in order. A workload that
// bypasses a layer reports 0 for it.
var perLayerMetrics = []struct{ name, unit string }{
	{"srpc.hop_overhead_us_p50", "us"},
	{"remote.calls_per_op", "count"},
	{"srpc.wire_bytes_per_call", "bytes"},
	{"sensor.csp_self_us_p50", "us"},
	{"sensor.csp_child_wait_us_p50", "us"},
	{"sensor.esp_read_us_p50", "us"},
	{"space.write_batch_us_p50", "us"},
	{"space.write_us_p50", "us"},
	{"space.take_any_us_p50", "us"},
	{"space.ops_per_job", "count"},
	{"wal.local_us_p50", "us"},
	{"wal.records_per_job", "count"},
	{"wal.bytes_per_job", "bytes"},
	{"repl.ship_rtt_us_p50", "us"},
	{"repl.ship_rtt_us_p99", "us"},
	{"repl.ships_per_job", "count"},
	{"repl.records_per_ship", "count"},
	{"sorcer.task_exec_us_p50", "us"},
	{"subscribe.source_eval_us_p50", "us"},
	{"subscribe.evals_per_delta", "count"},
	{"subscribe.coalesced_ratio", "ratio"},
	{"subscribe.first_recv_us_p50", "us"},
	{"subscribe.fanout_spread_ms_p50", "ms"},
	{"subscribe.dropped_ratio", "ratio"},
	{"subscribe.readings_per_update", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles_per_kop", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"share.srpc_pct", "%"},
	{"share.sensor_pct", "%"},
	{"share.sorcer_pct", "%"},
	{"share.space_wal_pct", "%"},
	{"share.repl_pct", "%"},
	{"share.subscribe_pct", "%"},
	{"share.unattributed_pct", "%"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func printHuman(name string, res result) {
	print := func(ms map[string]metric, note string) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %s %.6g %s%s\n", name, n, ms[n].Value, ms[n].Unit, note)
		}
	}
	print(res.Metrics, "")
	print(res.Unbounded, " (unbounded)")
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// violations collects correctness failures from any goroutine, keeping
// the first few messages and counting the rest.
type violations struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (v *violations) add(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.n++
	if len(v.first) < 5 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

func (v *violations) list() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := append([]string(nil), v.first...)
	if v.n > len(v.first) {
		out = append(out, fmt.Sprintf("... and %d more", v.n-len(v.first)))
	}
	return out
}
