package main

import (
	"sort"
	"strings"
)

// opWindow is one traced op: its trace ID and its interval on the
// recorder clock.
type opWindow struct {
	trace      int64
	start, end int64
}

func (o opWindow) dur() int64 { return o.end - o.start }

// opTree is the spans one traced op caused, linked into a tree. The root
// (parent -1) is the op itself.
type opTree struct {
	op       opWindow
	spans    []span
	parent   []int
	children [][]int
}

// eachOp calls fn for each op window, in order, with the spans that
// overlap it. The windows are consecutive and disjoint, so one sweep over
// the spans sorted by start finds them.
func eachOp(windows []opWindow, spans []span, fn func(opWindow, []span)) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var open []span
	next := 0
	for _, win := range windows {
		for next < len(spans) && spans[next].start < win.end {
			open = append(open, spans[next])
			next++
		}
		kept := open[:0]
		for _, s := range open {
			if s.end > win.start {
				kept = append(kept, s)
			}
		}
		open = kept
		fn(win, open)
	}
}

// ownSpans keeps the spans of op's trace that began and ended inside it.
func ownSpans(op opWindow, all []span) []span {
	var spans []span
	for _, s := range all {
		if s.trace == op.trace && s.start >= op.start && s.end <= op.end {
			spans = append(spans, s)
		}
	}
	return spans
}

// buildTree links the spans that began and ended inside op. Spans arrive
// in recording order (by end time); they are sorted by start, longest
// first on ties, so a span's possible parents all precede it.
//
// A span's parent is the smallest span that contains it in time and whose
// key is the span's parentKey: a server span's client call, a composite's
// child call's composite, a ship's space mutation. Spans without a
// parentKey, or whose parent was not recorded, hang off the op. One op in
// flight at a time is what makes time containment identify the cause.
func buildTree(op opWindow, all []span) opTree {
	spans := ownSpans(op, all)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	t := opTree{op: op, spans: spans, parent: make([]int, len(spans)), children: make([][]int, len(spans))}
	for i, s := range spans {
		p := -1
		for j := 0; j < i && s.parentKey != ""; j++ {
			c := spans[j]
			if c.end >= s.end && c.key == s.parentKey && (p < 0 || c.dur() < spans[p].dur()) {
				p = j
			}
		}
		t.parent[i] = p
		if p >= 0 {
			t.children[p] = append(t.children[p], i)
		}
	}
	return t
}

// childUnion is the part of span i's interval that its children cover.
func (t opTree) childUnion(i int) int64 {
	iv := make([][2]int64, 0, len(t.children[i]))
	for _, c := range t.children[i] {
		iv = append(iv, [2]int64{t.spans[c].start, t.spans[c].end})
	}
	return unionLen(iv, t.spans[i].start, t.spans[i].end)
}

// selfTime is span i's duration minus the union of its children's
// intervals: parallel children that overlap are counted once.
func (t opTree) selfTime(i int) int64 {
	return t.spans[i].dur() - t.childUnion(i)
}

// unionLen is the length of the union of the intervals, clipped to
// [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// attribute charges each instant of op's interval to one layer: the
// layer of the most recently begun span still open at that instant
// (with parallel children or a blocked caller, that is the work that
// began last). Only the spans of the op's tree count: a wait that
// another goroutine began before the op (an idle worker's poll) or that
// outlives it is not the op's work and stays unattributed. Instants no
// span covers are charged to layerOp, the unattributed share. The
// charges add up to the op's duration.
func attribute(op opWindow, all []span) map[string]int64 {
	spans := ownSpans(op, all)
	bounds := []int64{op.start, op.end}
	for _, s := range spans {
		bounds = append(bounds, s.start, s.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := make(map[string]int64)
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		if b == a {
			continue
		}
		best := -1
		for j, s := range spans {
			if s.start > a || s.end < b {
				continue
			}
			if best < 0 || s.start > spans[best].start ||
				(s.start == spans[best].start && s.end < spans[best].end) {
				best = j
			}
		}
		layer := layerOp
		if best >= 0 {
			layer = spans[best].layer
		}
		out[layer] += b - a
	}
	return out
}

// traceSamples turns the traced ops into per-metric samples in
// microseconds, keyed by per-layer metric name (without the _p50/_p99
// suffix).
func traceSamples(trees []opTree) map[string][]float64 {
	out := make(map[string][]float64)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, t := range trees {
		for i, s := range t.spans {
			switch {
			case s.layer == layerSrpc && len(t.children[i]) > 0:
				out["srpc.hop_overhead_us"] = append(out["srpc.hop_overhead_us"], us(t.selfTime(i)))
			case s.name == "sensor.csp":
				out["sensor.csp_self_us"] = append(out["sensor.csp_self_us"], us(t.selfTime(i)))
				out["sensor.csp_child_wait_us"] = append(out["sensor.csp_child_wait_us"], us(t.childUnion(i)))
			case s.name == "sensor.esp":
				out["sensor.esp_read_us"] = append(out["sensor.esp_read_us"], us(s.dur()))
			case strings.HasPrefix(s.name, "space."):
				metric := s.name + "_us"
				out[metric] = append(out[metric], us(s.dur()))
				if s.key == keySpaceMutation && hasChild(t, i, "repl.ship") {
					out["wal.local_us"] = append(out["wal.local_us"], us(t.selfTime(i)))
				}
			case s.name == "repl.ship":
				out["repl.ship_rtt_us"] = append(out["repl.ship_rtt_us"], us(s.dur()))
			case s.name == "sorcer.task":
				out["sorcer.task_exec_us"] = append(out["sorcer.task_exec_us"], us(s.dur()))
			case s.name == "subscribe.eval":
				out["subscribe.source_eval_us"] = append(out["subscribe.source_eval_us"], us(s.dur()))
			}
		}
	}
	return out
}

func hasChild(t opTree, i int, name string) bool {
	for _, c := range t.children[i] {
		if t.spans[c].name == name {
			return true
		}
	}
	return false
}
