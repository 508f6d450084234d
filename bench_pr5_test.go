package sensorcer

// Acceptance benchmarks for the data-plane batching work: the composite
// read path after the slot-bound expression VM (BenchmarkCSPRead*) and
// pull-mode job dispatch through WriteBatch/TakeAny (BenchmarkSpacerBatch).
// The expression VM itself is benchmarked in internal/expr
// (BenchmarkEvalVM*).

import (
	"fmt"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/wal"
)

// BenchmarkCSPReadExpression measures a sequential composite read through
// a slot-bound compute-expression — the paper's §V-B shapes. With the
// bound fast path the steady state is allocation-free.
func BenchmarkCSPReadExpression(b *testing.B) {
	for _, tc := range []struct {
		name, src string
	}{
		{"default-average", ""},
		{"paper-avg", "(a + b + c) / 3"},
		{"hist-baseline", "a - avg(a_hist)"},
		{"quorum", "max(values) - min(values) < 5 ? avg(values) : a"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			csp := sensor.NewCSP("bench", sensor.WithSequentialReads())
			for i := 0; i < 3; i++ {
				esp := sensor.NewESP(fmt.Sprintf("s-%d", i),
					probe.NewReplayProbe("x", "t", "c", []float64{float64(i) + 20}, true, nil))
				b.Cleanup(func() { esp.Close() })
				if _, err := csp.AddChild(esp); err != nil {
					b.Fatal(err)
				}
			}
			if tc.src != "" {
				if err := csp.SetExpression(tc.src); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := csp.GetValue(); err != nil { // warm pools and stores
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := csp.GetValue(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpacerBatch runs an 8-task pull-mode job over a durable
// (journaled, fsync-per-ack) exertion space: batched dispatch pays one
// group commit for the envelope flood and the worker drains with TakeAny.
func BenchmarkSpacerBatch(b *testing.B) {
	const tasks = 8
	b.Run(fmt.Sprintf("batched-%d", tasks), func(b *testing.B) {
		l, err := wal.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sp, err := space.Recover(clockwork.Real(), lease.Policy{Max: time.Hour}, l)
		if err != nil {
			b.Fatal(err)
		}
		w := sorcer.NewSpaceWorker(sp, benchAdder("Adder-1"), "Adder")
		spacer := sorcer.NewSpacer("Spacer-1", sp, sorcer.WithTaskTimeout(30*time.Second))
		b.Cleanup(func() {
			w.Stop()
			sp.Close()
			_ = l.Close()
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var comps []sorcer.Exertion
			for j := 0; j < tasks; j++ {
				comps = append(comps, sorcer.NewTask(fmt.Sprintf("t%d", j),
					sorcer.Sig("Adder", "add"),
					sorcer.NewContextFrom("arg/a", float64(j), "arg/b", 100.0)))
			}
			job := sorcer.NewJob("bench-job", sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, comps...)
			if _, err := spacer.Service(job, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchAdder is a minimal Adder provider for dispatch benchmarks.
func benchAdder(name string) *sorcer.Provider {
	p := sorcer.NewProvider(name, "Adder")
	p.RegisterOp("add", func(ctx *sorcer.Context) error {
		a, err := ctx.Float("arg/a")
		if err != nil {
			return err
		}
		bv, err := ctx.Float("arg/b")
		if err != nil {
			return err
		}
		ctx.Put("result/value", a+bv)
		return nil
	})
	return p
}
