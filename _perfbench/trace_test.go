package main

import "testing"

// TestSelfTimeSubtractsUnionOfChildren builds a composite's span with
// overlapping parallel child calls, as the CSP fan-out produces. Its self
// time must be its span minus the union of the children's intervals; the
// sum of the children would exceed the span itself.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	op := opWindow{trace: 7, start: 0, end: 200}
	spans := []span{
		// The generator's call to the composite and the composite's span.
		{name: "srpc.call", layer: layerSrpc, key: "call:top", start: 5, end: 190},
		{name: "sensor.csp", layer: layerSensor, key: "csp:top", parentKey: "call:top", start: 10, end: 110},
		// Four parallel child calls: [20,70], [30,80] and [40,90] overlap,
		// [100,105] stands alone. Union 70+5 = 75; sum 155.
		{name: "srpc.call", layer: layerSrpc, key: "call:a", parentKey: "csp:top", start: 20, end: 70},
		{name: "srpc.call", layer: layerSrpc, key: "call:b", parentKey: "csp:top", start: 30, end: 80},
		{name: "srpc.call", layer: layerSrpc, key: "call:c", parentKey: "csp:top", start: 40, end: 90},
		{name: "srpc.call", layer: layerSrpc, key: "call:d", parentKey: "csp:top", start: 100, end: 105},
		// Server spans of the child calls. b's lies inside a's call too;
		// its key must link it to b.
		{name: "sensor.esp", layer: layerSensor, key: "csp:b", parentKey: "call:b", start: 45, end: 60},
		{name: "sensor.esp", layer: layerSensor, key: "csp:a", parentKey: "call:a", start: 25, end: 35},
		// A span of another trace inside the window is not this op's.
		{name: "sensor.esp", layer: layerSensor, key: "csp:x", trace: 8, start: 50, end: 55},
	}
	for i := range spans {
		if spans[i].trace == 0 {
			spans[i].trace = op.trace
		}
	}
	tree := buildTree(op, spans)
	if len(tree.spans) != 8 {
		t.Fatalf("tree holds %d spans, want 8", len(tree.spans))
	}
	idx := func(key string) int {
		for i, s := range tree.spans {
			if s.key == key {
				return i
			}
		}
		t.Fatalf("no span %q", key)
		return -1
	}
	csp := idx("csp:top")
	if got := tree.childUnion(csp); got != 75 {
		t.Errorf("child union = %d, want 75", got)
	}
	if got := tree.selfTime(csp); got != 100-75 {
		t.Errorf("composite self time = %d, want 25 (span 100 minus union 75, not minus sum 155)", got)
	}
	if p := tree.parent[idx("csp:b")]; p != idx("call:b") {
		t.Errorf("server span of b linked to %q, want call:b", tree.spans[p].key)
	}
	if p := tree.parent[idx("call:top")]; p != -1 {
		t.Errorf("the generator's call should hang off the op, got parent %d", p)
	}
	// Hop overhead of call:b is its span minus its server span.
	if got := tree.selfTime(idx("call:b")); got != 50-15 {
		t.Errorf("hop overhead of call:b = %d, want 35", got)
	}

	// The shares of the op's time add up to its duration, and time no
	// span covers is unattributed.
	shares := attribute(op, spans)
	var total int64
	for _, ns := range shares {
		total += ns
	}
	if total != op.dur() {
		t.Errorf("shares add up to %d, want %d", total, op.dur())
	}
	if got := shares[layerOp]; got != 5+10 {
		t.Errorf("unattributed = %d, want 15 ([0,5) and [190,200))", got)
	}

	// Waits that are not the op's own stay unattributed: a poll of the
	// op's trace that began before the op, a poll that outlives it, and
	// a span of another trace covering the op's gaps.
	waits := append(spans,
		span{name: "space.take_any", layer: layerSpaceWAL, trace: op.trace, start: -50, end: 4},
		span{name: "space.take_any", layer: layerSpaceWAL, trace: op.trace, start: 195, end: 300},
		span{name: "space.take_any", layer: layerSpaceWAL, trace: 6, start: 0, end: 200},
	)
	shares = attribute(op, waits)
	if got := shares[layerOp]; got != 5+10 {
		t.Errorf("with foreign waits, unattributed = %d, want 15", got)
	}
	if got := shares[layerSpaceWAL]; got != 0 {
		t.Errorf("foreign waits charged %d to space_wal, want 0", got)
	}
}

func TestUnionLenClips(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 20}, {30, 40}, {50, 60}}
	if got := unionLen(iv, 8, 55); got != 12+10+5 {
		t.Errorf("unionLen = %d, want 27", got)
	}
}
