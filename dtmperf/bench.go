package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
	"repro/internal/transport"
)

// distTimeout bounds one distributed solve; the stock code converges in about
// a second, so hitting it is a failure, not a slow run.
const distTimeout = 60 * time.Second

// distWorkers is the number of in-process workers of the distributed
// workload; member 0 is the coordinator.
const distWorkers = 2

// instance is one problem of a workload, with its reference solution
// computed once, outside every timed interval.
type instance struct {
	spec   dist.SpecV2
	faults *chaos.Spec
	sys    sparse.System
	ref    sparse.Vec
	pin    *countPin // DES only
}

// bench is one workload at one seed: the first n instances of the seed.
type bench struct {
	w     workload
	insts []*instance
}

func newBench(w workload, seed int64, n int, state, digest string) (*bench, error) {
	b := &bench{w: w}
	for j := 0; j < n; j++ {
		off := generatorOffset(seed, j)
		in := &instance{spec: w.spec(off)}
		var err error
		if in.faults, err = chaos.ParseSpec(w.faultString(off)); err != nil {
			return nil, err
		}
		p, err := in.spec.Build()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", in.spec.Source, err)
		}
		in.sys = p.System
		if in.ref, err = experiments.Reference(in.sys); err != nil {
			return nil, fmt.Errorf("reference solution of %s: %w", in.spec.Source, err)
		}
		if !w.distributed {
			path := filepath.Join(state, "counts", digest, fmt.Sprintf("%s-off%d.json", w.name, off))
			if in.pin, err = loadCountPin(path); err != nil {
				return nil, err
			}
		}
		b.insts = append(b.insts, in)
	}
	return b, nil
}

// stamp is one instant in wall time and in the process's CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// interval is the length of an interval in wall time and in process CPU time.
type interval struct{ wall, cpu time.Duration }

func (a stamp) to(b stamp) interval { return interval{b.wall.Sub(a.wall), b.cpu - a.cpu} }

// cpuTime returns the process's CPU time so far, user plus system. The
// kernel does not count time the host stole from a virtual CPU, which wall
// time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF and a valid buffer leave the call no way to fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// outcome is one solve from the workload's source string to a checked
// answer. setup runs from the source string to the first wave packet leaving
// a subdomain, solve from there until the engine returns.
type outcome struct {
	inst         int // index into bench.insts
	setup, solve interval
	alloc        uint64
	gcCycles     uint32
	gcPause      time.Duration
	err          error
	// Traced solves only: the per-layer figures of this solve and, on DES,
	// how often each part solved.
	layers  map[string]float64
	perPart []int
}

// memDelta fills the allocation and GC figures between two snapshots.
func (o *outcome) memDelta(m0, m1 *runtime.MemStats) {
	o.alloc = m1.TotalAlloc - m0.TotalAlloc
	o.gcCycles = m1.NumGC - m0.NumGC
	o.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
}

// solve runs one full solve of instance i. It first collects the previous
// solves' garbage, outside the timed interval, so every solve starts from the
// same heap state.
func (b *bench) solve(i int, tr *tracer) outcome {
	runtime.GC()
	var o outcome
	if b.w.distributed {
		o = b.insts[i].solveDist(tr)
	} else {
		o = b.insts[i].solveDES(tr)
	}
	o.inst = i
	return o
}

func (in *instance) desConfig() core.Config {
	return core.Config{
		CommonOptions: core.CommonOptions{Tol: tol, Faults: in.faults},
		MaxTime:       1e9,
	}
}

// build tears the spec. Untraced it is spec.Build itself; traced it makes
// the same public calls Build makes, one span each, and reports the source
// and partition layers. The exact DES counts, which must agree between
// timed and traced solves, pin the two paths to the same problem.
func (in *instance) build(tr *tracer, parent int) (*core.Problem, map[string]float64, error) {
	if tr == nil {
		p, err := in.spec.Build()
		return p, nil, err
	}
	s := in.spec
	id := tr.begin("sparse.Source.Build", parent)
	src, err := sparse.ParseSource(s.Source)
	if err != nil {
		return nil, nil, err
	}
	sys, hint, err := src.Build()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	layers := map[string]float64{
		"sparse.build_s": tr.duration(id).Seconds(),
		"sparse.nnz":     float64(sys.A.NNZ()),
	}
	delay := s.Delay
	if delay <= 0 {
		delay = 10
	}
	topo, err := topology.ParseTopology(s.Topology, s.Parts(), delay)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("partition.assign", parent)
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		return nil, nil, err
	}
	var assign partition.Assignment
	if hint.Grid && s.NParts == 0 {
		assign = partition.GridBlocks(hint.NX, hint.NY, s.PartsX, s.PartsY)
	} else {
		assign = partition.LevelSetGrow(g, s.Parts())
	}
	tr.end(id)
	layers["partition.assign_s"] = tr.duration(id).Seconds()
	id = tr.begin("partition.EVS", parent)
	res, err := partition.EVS(g, assign, partition.Options{})
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	layers["partition.evs_s"] = tr.duration(id).Seconds()
	maxDim, maxEnds := 0, 0
	for i, sd := range res.Subdomains {
		maxDim = max(maxDim, sd.Dim())
		maxEnds = max(maxEnds, len(res.LinksOfPart(i)))
	}
	layers["partition.parts"] = float64(res.NumParts())
	layers["partition.links"] = float64(len(res.Links))
	layers["partition.max_dim"] = float64(maxDim)
	layers["partition.max_ends"] = float64(maxEnds)
	p, err := core.NewProblem(sys, res, topo, nil)
	return p, layers, err
}

func (in *instance) solveDES(tr *tracer) outcome {
	var o outcome
	root := tr.begin("solve", 0)
	defer tr.end(root)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := now()
	p, layers, err := in.build(tr, root)
	if err != nil {
		o.err = err
		return o
	}
	if tr != nil {
		o.perPart = make([]int, p.Partition.NumParts())
	}
	var first stamp
	cfg := in.desConfig()
	cfg.Observer = func(_ float64, part int, _ sparse.Vec) {
		if first.wall.IsZero() {
			first = now()
		}
		if o.perPart != nil {
			o.perPart[part]++
		}
	}
	id := tr.begin("core.Solve", root)
	res, err := core.Solve(context.Background(), p, cfg)
	end := now()
	tr.end(id)
	runtime.ReadMemStats(&m1)
	o.memDelta(&m0, &m1)
	if o.err = in.checkDES(res, err, first.wall); o.err != nil {
		return o
	}
	o.setup, o.solve = start.to(first), first.to(end)
	if tr != nil {
		tr.record("core.first_wave", id, first.wall, first.wall, nil)
		c := countsOf(res)
		layers["core.solves"] = float64(c.Solves)
		layers["core.messages"] = float64(c.Messages)
		layers["core.messages_per_solve"] = float64(c.Messages) / float64(c.Solves)
		layers["core.virtual_time"] = c.VirtualTime
		layers["core.faults.dropped"] = float64(c.Dropped)
		layers["core.faults.duplicated"] = float64(c.Duplicated)
		layers["core.faults.retransmissions"] = float64(c.Retransmits)
		layers["core.faults.snapshots"] = float64(c.Snapshots)
		layers["core.faults.restarts"] = float64(c.Restarts)
		layers["core.faults.retransmit_ratio"] = float64(c.Retransmits) / float64(c.Messages)
		o.layers = layers
	}
	return o
}

// checkDES is the DES correctness gate: no error, converged, within agreeTol
// of the reference, and the pinned exact counts.
func (in *instance) checkDES(res *core.Result, err error, first time.Time) error {
	if err != nil {
		return err
	}
	if first.IsZero() {
		return errors.New("no subdomain ever solved")
	}
	if !res.Converged {
		return fmt.Errorf("not converged at virtual time %g", res.FinalTime)
	}
	if err := checkAgreement(res.X, in.ref); err != nil {
		return err
	}
	return in.pin.check(countsOf(res), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
}

// probe times set-up alone: it builds the problem and starts the DES solve,
// then cancels it at the first wave. It gives the many set-up samples a run
// reports the median of, at a fraction of a full solve's cost.
func (in *instance) probe() (interval, error) {
	runtime.GC()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := now()
	p, err := in.spec.Build()
	if err != nil {
		return interval{}, err
	}
	var first stamp
	cfg := in.desConfig()
	cfg.Observer = func(float64, int, sparse.Vec) {
		if first.wall.IsZero() {
			first = now()
			cancel()
		}
	}
	_, err = core.Solve(ctx, p, cfg)
	if first.wall.IsZero() {
		return interval{}, fmt.Errorf("set-up probe reached no first wave: %v", err)
	}
	return start.to(first), nil
}

// solveDist runs one distributed solve: a coordinator and two workers, each
// a goroutine on its own member of an in-process chan fabric decorated with
// countingTransport. Every member re-tears the spec itself.
func (in *instance) solveDist(tr *tracer) outcome {
	var o outcome
	root := tr.begin("solve", 0)
	defer tr.end(root)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := now()
	wc := &wireCounters{}
	raw := transport.NewChanNetwork(distWorkers + 1)
	members := make([]*countingTransport, len(raw))
	for i, m := range raw {
		members[i] = &countingTransport{Transport: m, c: wc, timed: tr != nil}
	}
	defer func() {
		for _, m := range raw {
			m.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), distTimeout)
	defer cancel()
	var wg sync.WaitGroup
	workers := make([]int, distWorkers)
	for i := range workers {
		workers[i] = i + 1
	}
	for _, id := range workers {
		w := dist.NewWorker(members[id])
		wg.Add(1)
		go func() {
			defer wg.Done()
			sid := tr.begin("dist.Worker.Run", root)
			_ = w.Run(ctx)
			tr.end(sid)
		}()
	}
	id := tr.begin("dist.Coordinate", root)
	res, err := dist.Coordinate(ctx, members[0], dist.CoordConfig{
		Spec: in.spec, Workers: workers, Tol: tol,
		WatchdogMS: 20, PollInterval: 5 * time.Millisecond,
	})
	end := now()
	tr.end(id)
	runtime.ReadMemStats(&m1)
	if err == nil {
		for _, w := range workers {
			_ = dist.Shutdown(ctx, members[0], w)
		}
	}
	cancel()
	wg.Wait()
	o.memDelta(&m0, &m1)
	first := wc.firstWave.Load()
	switch {
	case err != nil:
		o.err = err
	case first == nil:
		o.err = errors.New("no wave packet was sent")
	case !res.Converged:
		o.err = errors.New("distributed solve did not converge")
	default:
		o.err = checkAgreement(res.X, in.ref)
	}
	if o.err != nil {
		return o
	}
	o.setup, o.solve = start.to(*first), first.to(end)
	if tr != nil {
		for i, m := range members {
			tr.record("transport.member", root, start.wall, end.wall, map[string]float64{
				"member": float64(i), "sends": float64(m.sends.Load()), "send_ns": float64(m.sendNS.Load()),
				"recvs": float64(m.recvs.Load()), "recv_ns": float64(m.recvNS.Load()),
			})
		}
		tr.record("transport.first_wave", root, first.wall, first.wall, nil)
		var sendNS, recvNS int64
		for _, m := range members {
			sendNS += m.sendNS.Load()
			recvNS += m.recvNS.Load()
		}
		waves := float64(wc.wavePackets.Load())
		o.layers = map[string]float64{
			"core.solves":             float64(res.Solves),
			"core.messages":           float64(res.Messages),
			"core.messages_per_solve": float64(res.Messages) / float64(res.Solves),
			"transport.wave_packets":  waves,
			"transport.wave_entries":  float64(wc.waveEntries.Load()),
			"transport.ctrl_packets":  float64(wc.ctrlPackets.Load()),
			"transport.send_s":        time.Duration(sendNS).Seconds(),
			"transport.recv_wait_s":   time.Duration(recvNS).Seconds(),
			"transport.send_errors":   float64(wc.sendErrors.Load()),
			"dist.polls":              float64(res.Polls),
			"dist.fenced":             float64(res.Fenced),
			"dist.epoch":              float64(res.Epoch),
			"dist.local_msg_share":    1 - waves/float64(res.Messages),
		}
	}
	return o
}
