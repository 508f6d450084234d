package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of results written by -out, workload by
// workload: each metric's median and quartiles on both sides, and for
// end-to-end metrics whether the head's median is worse than the base's
// by more than the metric's bound. It refuses (exit 2) results whose
// machine environments differ; it exits 1 when a bound is exceeded.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bounds BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	var spec benchmarkSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare: reading bounds:", err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	if msg := envMismatch(append(append([]record(nil), base...), head...)); msg != "" {
		fmt.Fprintln(os.Stderr, "compare: refusing to compare results from different environments:", msg)
		return 2
	}
	type groupKey struct {
		workload string
		trace    bool
	}
	group := func(rs []record) map[groupKey][]record {
		g := make(map[groupKey][]record)
		for _, r := range rs {
			k := groupKey{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	bg, hg := group(base), group(head)
	var keys []groupKey
	for k := range bg {
		if _, ok := hg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	worse := false
	for _, k := range keys {
		fmt.Printf("%s (trace=%v): %d base runs, %d head runs\n", k.workload, k.trace, len(bg[k]), len(hg[k]))
		for _, name := range metricNames(bg[k]) {
			b, h := values(bg[k], name), values(hg[k], name)
			if len(h) == 0 {
				continue
			}
			bm, hm := median(b), median(h)
			line := fmt.Sprintf("  %-32s base %.6g [%.6g, %.6g]  head %.6g [%.6g, %.6g]",
				name, bm, quantile(b, 0.25), quantile(b, 0.75), hm, quantile(h, 0.25), quantile(h, 0.75))
			for _, m := range spec.EndToEnd {
				if m.Name != name || k.trace || bm == 0 {
					continue
				}
				change := (hm - bm) / bm
				if m.Better == "higher" {
					change = -change
				}
				verdict := "within bound"
				if change > m.Bound {
					verdict = "WORSE than bound"
					worse = true
				}
				line += fmt.Sprintf("  %+.1f%% worse-direction (bound %.0f%%): %s", 100*change, 100*m.Bound, verdict)
			}
			fmt.Println(line)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// envMismatch describes the first pair of records whose machine
// environments differ, or returns "".
func envMismatch(rs []record) string {
	for _, r := range rs[min(1, len(rs)):] {
		if r.Env.machineKey() != rs[0].Env.machineKey() {
			return fmt.Sprintf("%q vs %q", rs[0].Env.machineKey(), r.Env.machineKey())
		}
	}
	return ""
}

func metricNames(rs []record) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range rs {
		for _, ms := range []map[string]metric{r.Metrics, r.Unbounded} {
			for n := range ms {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Unbounded[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
