package main

import (
	"strings"
	"testing"
	"time"
)

// TestPlantedFaultsFailTheRun plants one fault per correctness check in
// a short end-to-end run and requires the run to report it; the same
// runs without a fault must pass.
func TestPlantedFaultsFailTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up every workload")
	}
	cases := []struct {
		workload, fault, want string
	}{
		{"composite-read", "", ""},
		{"composite-read", faultCompositeWiring, "not a composite of the replay series"},
		{"composite-read", faultCompositeCache, "replay index"},
		{"replicated-exertion", "", ""},
		{"replicated-exertion", faultWrongResult, "want"},
		{"replicated-exertion", faultEnvelopeLeft, "envelopes left behind"},
		{"replicated-exertion", faultServedTwice, "served more than once"},
		{"replicated-exertion", faultLogDiverged, "primary log ends at seq"},
		{"subscribe-fanout", "", ""},
		{"subscribe-fanout", faultSeqRegress, "SeqNo"},
		{"subscribe-fanout", faultFinalValue, "want the final"},
	}
	for _, c := range cases {
		name := c.workload + "/" + c.fault
		if c.fault == "" {
			name = c.workload + "/clean"
		}
		t.Run(name, func(t *testing.T) {
			w, ok := findWorkload(c.workload)
			if !ok {
				t.Fatalf("no workload %q", c.workload)
			}
			w.rate /= 4
			cfg := config{seed: 3, workdir: t.TempDir(), fault: c.fault}
			res, violations, err := runEndToEnd(w, cfg, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if c.fault == "" {
				if !res.Correct || res.Failed != 0 || len(violations) > 0 {
					t.Fatalf("clean run: correct %v, failed %d, violations %v", res.Correct, res.Failed, violations)
				}
				requireSpecMetrics(t, "end_to_end", res.Metrics)
				if _, ok := res.Unbounded["latency_p99_ms"]; !ok {
					t.Errorf("latency_p99_ms missing from the unbounded metrics")
				}
				for _, ms := range []map[string]metric{res.Metrics, res.Unbounded} {
					for name, m := range ms {
						if m.Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, m.Value)
						}
					}
				}
				return
			}
			if res.Correct {
				t.Fatalf("run with fault %q passed", c.fault)
			}
			if !strings.Contains(strings.Join(violations, "\n"), c.want) {
				t.Fatalf("violations %q do not mention %q", violations, c.want)
			}
		})
	}
}

// TestTracedRunReportsEveryPerLayerMetric runs each workload's traced
// phases briefly and checks the report is complete and names the layers
// each workload crosses.
func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up every workload")
	}
	crosses := map[string][]string{
		"composite-read":      {"srpc.hop_overhead_us_p50", "sensor.csp_self_us_p50", "sensor.esp_read_us_p50", "share.srpc_pct", "share.sensor_pct"},
		"replicated-exertion": {"space.ops_per_job", "wal.local_us_p50", "repl.ship_rtt_us_p50", "repl.records_per_ship", "share.space_wal_pct", "share.repl_pct"},
		"subscribe-fanout":    {"subscribe.evals_per_delta", "subscribe.first_recv_us_p50", "subscribe.fanout_spread_ms_p50", "share.subscribe_pct"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.rate /= 4
			res, violations, err := runTraced(w, config{seed: 5, workdir: t.TempDir()}, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct %v, failed %d, violations %v", res.Correct, res.Failed, violations)
			}
			requireSpecMetrics(t, "per_layer", res.Metrics)
			for _, name := range crosses[w.name] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			var shares float64
			for name, m := range res.Metrics {
				if strings.HasPrefix(name, "share.") {
					shares += m.Value
				}
			}
			if shares < 99.9 || shares > 100.1 {
				t.Errorf("time shares add up to %.3f%%, want 100", shares)
			}
		})
	}
}
