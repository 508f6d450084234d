package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Layers that traced time is attributed to. The benchmark records spans
// only around the public interfaces the layers are composed through, so
// each layer's time is what that interface boundary can see: the srpc
// layer is a client stub call minus the server-side span it caused
// (remote stub, codec, loopback TCP and the counting proxy relay), and
// space_wal is a space operation minus the ships it caused (index match,
// lease bookkeeping, WAL append and fsync).
const (
	layerOp        = "op" // the traced op itself; its self time is unattributed
	layerSrpc      = "srpc"
	layerSensor    = "sensor"
	layerSorcer    = "sorcer"
	layerSpaceWAL  = "space_wal"
	layerRepl      = "repl"
	layerSubscribe = "subscribe"
)

// attributedLayers is the report order of the time shares.
var attributedLayers = []string{layerSrpc, layerSensor, layerSorcer, layerSpaceWAL, layerRepl, layerSubscribe}

// Per-layer counters, indexed into instr.counts.
const (
	cntCalls    = iota // remote stub calls and subscription Recv returns
	cntSpaceOps        // SpaceOps calls by the Spacer and the workers
	cntShips           // Follower.ShipBatch calls
	cntShipped         // records carried by those ships
	cntEvals           // subscribe.Reader evaluations
	cntTasks           // task executions by the workers' servicer
	numCounters
)

// span is one timed call across a layer boundary. Times are nanoseconds
// on the recorder's monotonic clock.
type span struct {
	name  string
	layer string
	// key names the span for parent linking; parentKey, when set, names
	// the span that caused this one on another goroutine (a server span
	// names its client call, a composite's child call names the composite).
	key, parentKey string
	trace          int64
	start, end     int64
}

func (s span) dur() int64 { return s.end - s.start }

// instr is the instrumentation shared by every layer wrapper of one
// deployment. A nil *instr, the untraced end-to-end configuration, makes
// every wrapper a plain pass-through. Counting and tracing are switched
// per phase: counts during the loaded counting phase, spans during the
// single-in-flight traced phase.
type instr struct {
	base     time.Time
	counting atomic.Bool
	tracing  atomic.Bool
	// trace is the ID of the op in flight; the traced phase runs one op
	// at a time, so every span begun meanwhile belongs to it.
	trace  atomic.Int64
	counts [numCounters]atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newInstr() *instr { return &instr{base: time.Now()} }

// now reads the recorder's monotonic clock.
func (in *instr) now() int64 { return int64(time.Since(in.base)) }

func (in *instr) add(counter int, n int64) {
	if in != nil && in.counting.Load() {
		in.counts[counter].Add(n)
	}
}

func (in *instr) count(counter int) int64 {
	if in == nil {
		return 0
	}
	return in.counts[counter].Load()
}

// mark is the start of a span that may not be recorded.
type mark struct {
	on    bool
	trace int64
	start int64
}

func (in *instr) begin() mark {
	if in == nil || !in.tracing.Load() {
		return mark{}
	}
	return mark{on: true, trace: in.trace.Load(), start: in.now()}
}

func (in *instr) end(m mark, name, layer, key, parentKey string) {
	if !m.on {
		return
	}
	s := span{name: name, layer: layer, key: key, parentKey: parentKey,
		trace: m.trace, start: m.start, end: in.now()}
	in.mu.Lock()
	in.spans = append(in.spans, s)
	in.mu.Unlock()
}

// takeSpans returns and clears the recorded spans.
func (in *instr) takeSpans() []span {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := in.spans
	in.spans = nil
	return out
}

// record adds a span the caller timed itself.
func (in *instr) record(s span) {
	in.mu.Lock()
	in.spans = append(in.spans, s)
	in.mu.Unlock()
}
