package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"latency_p50_ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	env := environment{GoVersion: "go1.24.0", GOMAXPROCS: 2, NProc: 2, CPUModel: "cpu-a", WALFS: "ext4", Seed: 1}
	write := func(name string, env environment, p50 float64) string {
		path := filepath.Join(dir, name)
		r := record{Workload: "composite-read", Env: env, result: result{
			Correct: true, Attempted: 1,
			Metrics: map[string]metric{"latency_p50_ms": {p50, "ms"}},
		}}
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", env, 1.0)

	same := env
	same.Commit = "other-commit" // what is being compared may differ
	if got := compareMain([]string{"-bounds", spec, base, write("same.jsonl", same, 1.05)}); got != 0 {
		t.Errorf("same machine, within bound: exit %d, want 0", got)
	}
	if got := compareMain([]string{"-bounds", spec, base, write("slow.jsonl", same, 1.5)}); got != 1 {
		t.Errorf("same machine, 50%% slower: exit %d, want 1", got)
	}
	other := env
	other.CPUModel = "cpu-b"
	if got := compareMain([]string{"-bounds", spec, base, write("other.jsonl", other, 1.0)}); got != 2 {
		t.Errorf("different CPU model: exit %d, want 2 (refused)", got)
	}
}

// specMetrics reads the metric names and units BENCHMARK.json lists
// under key ("end_to_end" or "per_layer").
func specMetrics(t *testing.T, key string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// requireSpecMetrics checks that a result reports exactly the metrics
// BENCHMARK.json lists under key, with their units.
func requireSpecMetrics(t *testing.T, key string, got map[string]metric) {
	t.Helper()
	want := specMetrics(t, key)
	if len(got) != len(want) {
		t.Errorf("result has %d %s metrics, BENCHMARK.json lists %d", len(got), key, len(want))
	}
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: result has %+v, BENCHMARK.json says unit %q", name, m, unit)
		}
	}
}
