package main

import (
	"sync"
	"time"

	"sensorcer/internal/lease"
	"sensorcer/internal/repl"
	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/subscribe"
	"sensorcer/internal/txn"
)

// The wrappers below measure each layer from outside, at the public
// interface the deployment composes it through. With a nil *instr they
// only forward.

// keySpaceMutation keys the space operations that can journal (and so
// ship), so a ship recorded on another goroutine links to one of them.
const keySpaceMutation = "space.mut"

// callAccessor is the client side of an srpc accessor hop.
type callAccessor struct {
	sensor.DataAccessor
	in *instr
	// key is "call:<service>"; parentKey names the composite that owns
	// the edge ("" for the load generator's own calls).
	key, parentKey string
}

func (a *callAccessor) GetValue() (probe.Reading, error) {
	a.in.add(cntCalls, 1)
	m := a.in.begin()
	r, err := a.DataAccessor.GetValue()
	a.in.end(m, "srpc.call", layerSrpc, a.key, a.parentKey)
	return r, err
}

// servedAccessor is the server side of an accessor hop: the provider's
// own read (an ESP's probe read, or a composite's fan-out and
// expression).
type servedAccessor struct {
	sensor.DataAccessor
	in *instr
	// name is "sensor.esp" or "sensor.csp"; key is "csp:<service>" so a
	// composite's child calls link to it; parentKey is "call:<service>".
	name, key, parentKey string
}

func (a *servedAccessor) GetValue() (probe.Reading, error) {
	m := a.in.begin()
	r, err := a.DataAccessor.GetValue()
	a.in.end(m, a.name, layerSensor, a.key, a.parentKey)
	return r, err
}

// callServicer is the client side of the requester's srpc hop to the
// Spacer.
type callServicer struct {
	sorcer.Servicer
	in *instr
}

func (s *callServicer) Service(ex sorcer.Exertion, tx *txn.Transaction) (sorcer.Exertion, error) {
	s.in.add(cntCalls, 1)
	m := s.in.begin()
	out, err := s.Servicer.Service(ex, tx)
	s.in.end(m, "srpc.call", layerSrpc, "call:spacer", "")
	return out, err
}

// servedServicer is the server side of that hop: job expansion and the
// Spacer's coordination.
type servedServicer struct {
	sorcer.Servicer
	in *instr
}

func (s *servedServicer) Service(ex sorcer.Exertion, tx *txn.Transaction) (sorcer.Exertion, error) {
	m := s.in.begin()
	out, err := s.Servicer.Service(ex, tx)
	s.in.end(m, "sorcer.front", layerSorcer, "front", "call:spacer")
	return out, err
}

// taskServicer is the workers' provider. Besides timing each task it
// counts executions per task ID, always: a task served twice fails the
// run.
type taskServicer struct {
	sorcer.Servicer
	in *instr

	mu    sync.Mutex
	execs map[string]int
}

func newTaskServicer(inner sorcer.Servicer, in *instr) *taskServicer {
	return &taskServicer{Servicer: inner, in: in, execs: make(map[string]int)}
}

func (s *taskServicer) Service(ex sorcer.Exertion, tx *txn.Transaction) (sorcer.Exertion, error) {
	s.mu.Lock()
	s.execs[ex.ID().String()]++
	s.mu.Unlock()
	s.in.add(cntTasks, 1)
	m := s.in.begin()
	out, err := s.Servicer.Service(ex, tx)
	s.in.end(m, "sorcer.task", layerSorcer, "", "")
	return out, err
}

// servedTwice reports how many task IDs were executed more than once.
func (s *taskServicer) servedTwice() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.execs {
		if c > 1 {
			n++
		}
	}
	return n
}

// tracedSpace wraps the SpaceOps the Spacer and the workers use.
type tracedSpace struct {
	sorcer.SpaceOps
	in *instr
	// parentKey is "front" for the Spacer's operations, which always run
	// inside the front's span, and "" for the workers'.
	parentKey string
}

func (s *tracedSpace) Write(e space.Entry, tx *txn.Transaction, d time.Duration) (lease.Lease, error) {
	s.in.add(cntSpaceOps, 1)
	m := s.in.begin()
	l, err := s.SpaceOps.Write(e, tx, d)
	s.in.end(m, "space.write", layerSpaceWAL, keySpaceMutation, s.parentKey)
	return l, err
}

func (s *tracedSpace) WriteBatch(es []space.Entry, tx *txn.Transaction, d time.Duration) ([]lease.Lease, error) {
	s.in.add(cntSpaceOps, 1)
	m := s.in.begin()
	ls, err := s.SpaceOps.WriteBatch(es, tx, d)
	s.in.end(m, "space.write_batch", layerSpaceWAL, keySpaceMutation, s.parentKey)
	return ls, err
}

func (s *tracedSpace) Read(tmpl space.Entry, tx *txn.Transaction, timeout time.Duration) (space.Entry, error) {
	s.in.add(cntSpaceOps, 1)
	m := s.in.begin()
	e, err := s.SpaceOps.Read(tmpl, tx, timeout)
	s.in.end(m, "space.read", layerSpaceWAL, "", s.parentKey)
	return e, err
}

func (s *tracedSpace) Take(tmpl space.Entry, tx *txn.Transaction, timeout time.Duration) (space.Entry, error) {
	s.in.add(cntSpaceOps, 1)
	m := s.in.begin()
	e, err := s.SpaceOps.Take(tmpl, tx, timeout)
	s.in.end(m, "space.take", layerSpaceWAL, keySpaceMutation, s.parentKey)
	return e, err
}

func (s *tracedSpace) TakeAny(tmpl space.Entry, max int, tx *txn.Transaction, timeout time.Duration) ([]space.Entry, error) {
	s.in.add(cntSpaceOps, 1)
	m := s.in.begin()
	es, err := s.SpaceOps.TakeAny(tmpl, max, tx, timeout)
	s.in.end(m, "space.take_any", layerSpaceWAL, keySpaceMutation, s.parentKey)
	return es, err
}

func (s *tracedSpace) Count(tmpl space.Entry) int {
	s.in.add(cntSpaceOps, 1)
	m := s.in.begin()
	n := s.SpaceOps.Count(tmpl)
	s.in.end(m, "space.count", layerSpaceWAL, "", s.parentKey)
	return n
}

// tracedFollower wraps the primary's srpc stub to its backup. There is
// no server-side span: the backup is served as a concrete *repl.Node.
type tracedFollower struct {
	repl.Follower
	in *instr
}

func (f *tracedFollower) ShipBatch(epoch, firstSeq uint64, payloads [][]byte) (uint64, error) {
	f.in.add(cntCalls, 1)
	f.in.add(cntShips, 1)
	f.in.add(cntShipped, int64(len(payloads)))
	m := f.in.begin()
	next, err := f.Follower.ShipBatch(epoch, firstSeq, payloads)
	f.in.end(m, "repl.ship", layerRepl, "", keySpaceMutation)
	return next, err
}

// tracedReader wraps a subscription Source's upstream read.
type tracedReader struct {
	subscribe.Reader
	in *instr
}

func (r *tracedReader) GetValue() (probe.Reading, error) {
	r.in.add(cntEvals, 1)
	m := r.in.begin()
	v, err := r.Reader.GetValue()
	r.in.end(m, "subscribe.eval", layerSubscribe, "", "")
	return v, err
}
