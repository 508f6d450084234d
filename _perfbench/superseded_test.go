package main

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestSupersededDeliveriesAreCharged shows that a scheduled delta the
// Source coalesced or the hub conflated is not lost from the latency
// samples: when its successor on the same sensor arrives, it is charged
// from its own due time, if the subscriber's filter would have passed it.
func TestSupersededDeliveriesAreCharged(t *testing.T) {
	const ms = int64(1e6)
	d := &subscribeFanout{due: make([]atomic.Int64, 64), prevSched: make([]atomic.Int64, 64)}
	for s := range d.schedHead {
		d.schedHead[s].Store(-1)
	}
	// Deltas on sensor 0 due at 1..4 ms, one on sensor 1 in between.
	d.schedule(10, 0, 1*ms)
	d.schedule(12, 1, 1*ms)
	d.schedule(20, 0, 2*ms)
	d.schedule(30, 0, 3*ms)
	d.schedule(40, 0, 4*ms)

	all := [fanoutSensors]bool{}
	for s := range all {
		all[s] = true
	}
	cases := []struct {
		name string
		spec subSpec
		want []float64
	}{
		// 20 and 30 were superseded by 40, which arrives at 10 ms.
		{"no filter", subSpec{class: classAll, in: all}, []float64{8, 7}},
		{"value % 3 != 0", subSpec{class: classExpr, in: all, pred: 1}, []float64{8}},
		// From 10, 20 moves too little; 30 moves 20.
		{"min-change", subSpec{class: classMinChange, in: all}, []float64{7}},
	}
	for _, c := range cases {
		sub := &fanSubscriber{spec: c.spec}
		d.chargeSuperseded(sub, 0, 10, 40, 10*ms)
		if len(sub.lat) != len(c.want) {
			t.Errorf("%s: samples %v, want %v", c.name, sub.lat, c.want)
			continue
		}
		for i := range c.want {
			if sub.lat[i] != c.want[i] {
				t.Errorf("%s: samples %v, want %v", c.name, sub.lat, c.want)
				break
			}
		}
	}
}

// TestFailedReadFailsCompositeCheck: a failed read may have consumed
// probe values nobody decoded, so the replay tally cannot vouch for the
// run and the check must fail.
func TestFailedReadFailsCompositeCheck(t *testing.T) {
	d := &compositeRead{}
	got := strings.Join(d.check(1), "\n")
	if !strings.Contains(got, "reads failed") {
		t.Fatalf("check with a failed read = %q, want a violation", got)
	}
}
