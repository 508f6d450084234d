package main

import (
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/remote"
	"sensorcer/internal/repl"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/srpc"
	"sensorcer/internal/txn"
)

// replicated-exertion: a requester submits parallel pull-mode jobs of
// eight arithmetic tasks through a ServicerClient to a Spacer. The
// Spacer runs on a one-shard repl.Router whose primary Node ships every
// journaled batch to a backup Node over srpc; both nodes keep durable
// WALs with the default fsync group commit. Two SpaceWorkers take the
// envelopes and write the results back. The space also holds a seeded
// resident set of unrelated kinds, so matching goes through the index.
const (
	jobTasks     = 8
	residentSize = 2000
	arithType    = "Arithmetic"
	spacerName   = "spacer"
)

var arithOps = []string{"add", "sub", "mul", "max"}

// taskSpec is one seeded task: operands are small integers, so every
// result is exact in float64.
type taskSpec struct {
	op   string
	a, b float64
}

func (t taskSpec) want() float64 {
	switch t.op {
	case "add":
		return t.a + t.b
	case "sub":
		return t.a - t.b
	case "mul":
		return t.a * t.b
	default:
		return math.Max(t.a, t.b)
	}
}

type replicatedExertion struct {
	in    *instr
	dir   string
	fault string
	jobs  [][jobTasks]taskSpec

	primary, backup *repl.Node
	router          *repl.Router
	follower        *remote.ReplicationClient
	servers         []*srpc.Server
	px              proxies
	workers         []*sorcer.SpaceWorker
	tasks           *taskServicer
	stubs           []*remote.ServicerClient
	requesters      []sorcer.Servicer

	wrong violations
}

func setupReplicatedExertion(cfg config) (deployment, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	d := &replicatedExertion{in: cfg.in, dir: cfg.workdir, fault: cfg.fault}
	d.jobs = make([][jobTasks]taskSpec, opTableSize)
	for i := range d.jobs {
		for t := range d.jobs[i] {
			d.jobs[i][t] = taskSpec{op: arithOps[rng.Intn(len(arithOps))], a: float64(rng.Intn(1000)), b: float64(rng.Intn(1000))}
		}
	}
	if err := d.build(cfg, rng); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *replicatedExertion) serve() (*srpc.Server, *countingProxy, error) {
	server, px, err := serveBehindProxy()
	if err != nil {
		return nil, nil, err
	}
	d.servers = append(d.servers, server)
	d.px = append(d.px, px)
	return server, px, nil
}

func (d *replicatedExertion) build(cfg config, rng *rand.Rand) error {
	clock := clockwork.Real()
	policy := lease.Policy{Max: 24 * time.Hour}
	var err error
	if d.primary, err = repl.NewNode("s0-primary", clock, policy, filepath.Join(d.dir, "primary")); err != nil {
		return err
	}
	if d.backup, err = repl.NewNode("s0-backup", clock, policy, filepath.Join(d.dir, "backup")); err != nil {
		return err
	}
	replSrv, replPx, err := d.serve()
	if err != nil {
		return err
	}
	desc := remote.ServeReplication(replSrv, "s0", d.backup)
	desc.Locator = replPx.addr()
	if d.follower, err = remote.NewReplicationClient(desc, callTimeout); err != nil {
		return err
	}
	// The Router attaches only in-process backups, so the shard starts
	// solo and the primary attaches the srpc backup itself; the space it
	// serves stays the one the Router routes to.
	if d.router, err = repl.NewRouter(clock, []repl.ShardSpec{{Name: "s0", Primary: d.primary}}); err != nil {
		return err
	}
	if _, err := d.primary.AttachBackup(2, &tracedFollower{Follower: d.follower, in: d.in}, false); err != nil {
		return err
	}

	kinds := []string{"Reading", "Calibration", "Alarm", "Maintenance"}
	resident := make([]space.Entry, 0, residentSize)
	for i := 0; i < residentSize; i++ {
		resident = append(resident, space.NewEntry(kinds[rng.Intn(len(kinds))],
			"sensor", fmt.Sprintf("spot-%03d", rng.Intn(500)), "value", float64(rng.Intn(100000))))
	}
	for i := 0; i < len(resident); i += 200 {
		if _, err := d.router.WriteBatch(resident[i:min(i+200, len(resident))], nil, 24*time.Hour); err != nil {
			return err
		}
	}
	if cfg.fault == faultEnvelopeLeft {
		orphan := space.NewEntry(sorcer.EnvelopeKind, "type", "Unserved", "selector", "none", "taskID", "orphan")
		if _, err := d.router.Write(orphan, nil, 24*time.Hour); err != nil {
			return err
		}
	}

	provider := sorcer.NewProvider("arith", arithType)
	for _, op := range arithOps {
		op := op
		provider.RegisterOp(op, func(ctx *sorcer.Context) error {
			a, err := ctx.Float("arg/a")
			if err != nil {
				return err
			}
			b, err := ctx.Float("arg/b")
			if err != nil {
				return err
			}
			v := taskSpec{op: op, a: a, b: b}.want()
			if cfg.fault == faultWrongResult && op == "mul" {
				v++
			}
			ctx.Put("result/value", v)
			return nil
		})
	}
	d.tasks = newTaskServicer(provider, d.in)
	var workerSpace sorcer.SpaceOps = &tracedSpace{SpaceOps: d.router, in: d.in}
	for i := 0; i < 2; i++ {
		d.workers = append(d.workers, sorcer.NewSpaceWorker(workerSpace, d.tasks, arithType))
	}

	var spacerSpace sorcer.SpaceOps = &tracedSpace{SpaceOps: d.router, in: d.in, parentKey: "front"}
	if cfg.fault == faultServedTwice {
		spacerSpace = duplicatingSpace{spacerSpace}
	}
	spacer := sorcer.NewSpacer(spacerName, spacerSpace, sorcer.WithTaskTimeout(callTimeout))
	frontSrv, frontPx, err := d.serve()
	if err != nil {
		return err
	}
	front := &servedServicer{Servicer: &jobFront{spacer: spacer}, in: d.in}
	desc = remote.ServeServicer(frontSrv, spacerName, front)
	desc.Locator = frontPx.addr()
	for c := 0; c < clientConns; c++ {
		stub, err := remote.NewServicerClient(desc, callTimeout)
		if err != nil {
			return err
		}
		d.stubs = append(d.stubs, stub)
		d.requesters = append(d.requesters, &callServicer{Servicer: stub, in: d.in})
	}
	return nil
}

// jobFront is the Spacer's srpc face. ServicerClient carries single
// tasks across processes, so the requester sends one task whose context
// lists the job's eight tasks ("job/op<i>", "job/a<i>", "job/b<i>"); the
// front builds the parallel pull-mode Job, runs it on the Spacer and
// returns each task's result as "job/r<i>".
type jobFront struct {
	spacer *sorcer.Spacer
}

func (f *jobFront) Service(ex sorcer.Exertion, tx *txn.Transaction) (sorcer.Exertion, error) {
	ctx := ex.Context()
	tasks := make([]*sorcer.Task, jobTasks)
	components := make([]sorcer.Exertion, jobTasks)
	for i := range tasks {
		op, err := ctx.StringAt(fmt.Sprintf("job/op%d", i))
		if err != nil {
			return ex, err
		}
		a, err := ctx.Float(fmt.Sprintf("job/a%d", i))
		if err != nil {
			return ex, err
		}
		b, err := ctx.Float(fmt.Sprintf("job/b%d", i))
		if err != nil {
			return ex, err
		}
		tasks[i] = sorcer.NewTask(fmt.Sprintf("t%d", i), sorcer.Sig(arithType, op), sorcer.NewContextFrom("arg/a", a, "arg/b", b))
		components[i] = tasks[i]
	}
	job := sorcer.NewJob(ex.Name(), sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, components...)
	if _, err := f.spacer.Service(job, tx); err != nil {
		return ex, err
	}
	for i, t := range tasks {
		v, err := t.Context().Float("result/value")
		if err != nil {
			return ex, fmt.Errorf("task %d: %w", i, err)
		}
		ctx.Put(fmt.Sprintf("job/r%d", i), v)
	}
	return ex, nil
}

// duplicatingSpace is the served-twice fault: every envelope batch is
// written twice, so each task is executed twice.
type duplicatingSpace struct{ sorcer.SpaceOps }

func (s duplicatingSpace) WriteBatch(es []space.Entry, tx *txn.Transaction, d time.Duration) ([]lease.Lease, error) {
	if len(es) > 0 && es[0].Kind == sorcer.EnvelopeKind {
		if _, err := s.SpaceOps.WriteBatch(es, tx, d); err != nil {
			return nil, err
		}
	}
	return s.SpaceOps.WriteBatch(es, tx, d)
}

// do submits job k and checks every task's result.
func (d *replicatedExertion) do(k int) error {
	spec := d.jobs[k%len(d.jobs)]
	ctx := sorcer.NewContext()
	for i, t := range spec {
		ctx.Put(fmt.Sprintf("job/op%d", i), t.op)
		ctx.Put(fmt.Sprintf("job/a%d", i), t.a)
		ctx.Put(fmt.Sprintf("job/b%d", i), t.b)
	}
	task := sorcer.NewTask(fmt.Sprintf("job-%d", k), sorcer.Sig(spacerName, "run"), ctx)
	out, err := d.requesters[k%clientConns].Service(task, nil)
	if err != nil {
		return err
	}
	for i, t := range spec {
		got, err := out.Context().Float(fmt.Sprintf("job/r%d", i))
		if err != nil || got != t.want() {
			d.wrong.add("job %d task %d: %s(%v, %v) = %v (%v), want %v", k, i, t.op, t.a, t.b, got, err, t.want())
		}
	}
	return nil
}

func (d *replicatedExertion) openLoop(rate float64, dur time.Duration) loadResult {
	return openLoop(rate, dur, openLoopWorkers, func(k int, _ time.Time) error { return d.do(k) })
}

func (d *replicatedExertion) closedLoop(dur time.Duration) (int, int, time.Duration) {
	return closedLoop(dur, clientConns, d.do)
}

func (d *replicatedExertion) single(k int) error { return d.do(k) }

func (d *replicatedExertion) wireBytes() int64 { return d.px.bytes() }

func (d *replicatedExertion) snapshot() map[string]float64 {
	return map[string]float64{
		"wal_records": float64(d.primary.Log().NextSeq()),
		"wal_bytes":   float64(dirBytes(filepath.Join(d.dir, "primary")) + dirBytes(filepath.Join(d.dir, "backup"))),
	}
}

func (d *replicatedExertion) layerMetrics(delta map[string]float64, jobs float64) map[string]float64 {
	return map[string]float64{
		"space.ops_per_job":     delta["space_ops"] / jobs,
		"wal.records_per_job":   delta["wal_records"] / jobs,
		"wal.bytes_per_job":     delta["wal_bytes"] / jobs,
		"repl.ships_per_job":    delta["ships"] / jobs,
		"repl.records_per_ship": ratio(delta["shipped"], delta["ships"]),
	}
}

func (d *replicatedExertion) singleMetrics() map[string]float64 { return nil }

// check requires every result to have been right, no task to have run
// twice, no envelope or result to be left in the space, and the primary
// and backup logs to end at the same sequence.
func (d *replicatedExertion) check(int) []string {
	out := d.wrong.list()
	if n := d.tasks.servedTwice(); n > 0 {
		out = append(out, fmt.Sprintf("%d tasks were served more than once", n))
	}
	if n := d.router.Count(space.NewEntry(sorcer.EnvelopeKind)); n != 0 {
		out = append(out, fmt.Sprintf("%d envelopes left behind in the space", n))
	}
	if n := d.router.Count(space.NewEntry(sorcer.ResultKind)); n != 0 {
		out = append(out, fmt.Sprintf("%d results left behind in the space", n))
	}
	if d.fault == faultLogDiverged {
		_, _ = d.primary.Log().Append([]byte("planted"))
	}
	if p, b := d.primary.Log().NextSeq(), d.backup.Log().NextSeq(); p != b {
		out = append(out, fmt.Sprintf("primary log ends at seq %d, backup at %d", p, b))
	}
	return out
}

func (d *replicatedExertion) close() {
	for _, w := range d.workers {
		w.Stop()
	}
	for _, s := range d.stubs {
		s.Close()
	}
	if d.router != nil {
		_ = d.router.Close() // closes the primary
	} else if d.primary != nil {
		_ = d.primary.Close()
	}
	if d.follower != nil {
		d.follower.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	if d.backup != nil {
		_ = d.backup.Close()
	}
	d.px.close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
