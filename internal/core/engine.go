package core

import (
	"context"
	"math"

	"repro/internal/netsim"
	"repro/internal/sparse"
)

// wavePacket is the payload of one N2N message: the outgoing waves of every
// DTL whose far end lives in the destination subdomain. It travels through the
// generic simulator as a value — no interface boxing — and its entries slice
// is recycled through the engine's pool once the receiver has consumed it.
//
// seq exists for the fault layer: it numbers the waves of each directed part
// pair so receivers can discard duplicated or overtaken packets
// (last-writer-wins). Fault-free runs leave it at zero and never consult it.
type wavePacket struct {
	seq     uint64
	entries []waveEntry
}

type waveEntry struct {
	linkID int
	wave   float64
}

// engine is the shared state of a DTM run on the DES, mixed or live engine:
// the subdomains, the incrementally maintained assembled solution and error,
// and the trace. It is not safe for concurrent use; the live engine serialises
// every access behind one mutex.
type engine struct {
	prob *Problem
	cfg  *Config
	subs []*Subdomain

	// ownerOf[part] lists the (local index, global index) pairs the part owns
	// (see Problem.OwnerPairs).
	ownerOf [][][2]int

	x     sparse.Vec // assembled solution (owner copies)
	exact sparse.Vec
	// errSq is the running Σ (x_i - exact_i)² (valid only when exact != nil).
	// It is updated incrementally on every local solve and recomputed exactly
	// every errRecomputeEvery updates, because the incremental subtraction
	// accumulates rounding residue that would otherwise keep the apparent
	// error above tight StopOnError thresholds forever.
	errSq          float64
	sinceRecompute int
	solves         int

	// ports[p] is part p's port potentials as of its latest applyLocal: the
	// engine's own copy, so the twin-gap tree never reads a Subdomain that
	// another goroutine may be solving (live engine).
	ports [][]float64

	// Incrementally maintained twin-gap state. gapTree is a 1-indexed max
	// segment tree whose leaves (starting at gapLeaf) hold the exact current
	// disagreement |u_A − u_B| of each link. After a part solves, only its
	// incident links are refreshed — O(incident · log L) instead of the O(L)
	// full scan per stop-condition check — and, unlike errSq, no periodic
	// recomputation is needed because every leaf is always recomputed exactly
	// from the two port potentials (nothing accumulates). gapRefs[p] holds,
	// per incident link of part p, the tree leaf index and direct pointers to
	// the two port potentials in ports (stable: never reallocated), so a gap
	// refresh is two loads, one abs, and a tree walk.
	gapRefs [][]gapRef
	gapTree []float64
	gapLeaf int

	// entryPool recycles waveEntry slices between sender and receiver; every
	// Get and Put runs under the engine's single thread (or the live engine's
	// mutex), so a plain free list suffices and the steady state allocates no
	// packet buffers at all.
	entryPool netsim.Pool[waveEntry]

	lastChange []float64 // last boundary-potential change per part
	solvedOnce []bool

	trace     []TracePoint
	messages  int
	converged bool
	// interrupted is set when the ctx (the caller's, or Solve's MaxWallTime
	// deadline) ended the run before a stopping rule fired.
	interrupted bool

	// timeOffset is added to every recorded trace time; the mixed sync/async
	// engine uses it to stitch several DES windows onto one virtual time axis.
	timeOffset float64

	// faults is the fault-injection bookkeeping (see faults.go); nil unless the
	// run has an enabled fault spec, and every fault-path branch is off then.
	faults *faultState
}

func newEngine(p *Problem, cfg *Config, subs []*Subdomain) *engine {
	e := &engine{
		prob:       p,
		cfg:        cfg,
		subs:       subs,
		x:          sparse.NewVec(p.System.Dim()),
		exact:      cfg.Exact,
		lastChange: make([]float64, len(subs)),
		solvedOnce: make([]bool, len(subs)),
	}
	for i := range e.lastChange {
		e.lastChange[i] = math.Inf(1)
	}
	e.ownerOf = p.OwnerPairs()
	if e.exact != nil {
		for i := range e.x {
			d := e.x[i] - e.exact[i]
			e.errSq += d * d
		}
	}
	e.initTwinGaps()
	return e
}

// errRecomputeEvery is how many incremental error updates are allowed between
// exact recomputations of errSq (see the field comment).
const errRecomputeEvery = 256

// gapRef locates one twin link for the incremental gap tracker: its leaf slot
// in the segment tree and the addresses of the two twin port potentials in
// engine.ports.
type gapRef struct {
	leaf int32
	a, b *float64
}

// initTwinGaps builds the per-part incidence lists and the max segment tree
// over the current link disagreements.
func (e *engine) initTwinGaps() {
	links := e.prob.Partition.Links
	linksOfPart := make([][]int32, len(e.subs))
	for i, l := range links {
		linksOfPart[l.PartA] = append(linksOfPart[l.PartA], int32(i))
		if l.PartB != l.PartA {
			linksOfPart[l.PartB] = append(linksOfPart[l.PartB], int32(i))
		}
	}
	e.ports = make([][]float64, len(e.subs))
	for part, sub := range e.subs {
		e.ports[part] = append([]float64(nil), sub.X()[:sub.NumPorts()]...)
	}
	if len(links) == 0 {
		return
	}
	leaf := 1
	for leaf < len(links) {
		leaf <<= 1
	}
	e.gapLeaf = leaf
	e.gapTree = make([]float64, 2*leaf)
	for i, l := range links {
		e.gapTree[leaf+i] = math.Abs(e.ports[l.PartA][l.PortA] - e.ports[l.PartB][l.PortB])
	}
	for i := leaf - 1; i >= 1; i-- {
		e.gapTree[i] = math.Max(e.gapTree[2*i], e.gapTree[2*i+1])
	}
	e.gapRefs = make([][]gapRef, len(e.subs))
	for part, incident := range linksOfPart {
		refs := make([]gapRef, len(incident))
		for j, li := range incident {
			l := &links[li]
			refs[j] = gapRef{
				leaf: int32(leaf + int(li)),
				a:    &e.ports[l.PartA][l.PortA],
				b:    &e.ports[l.PartB][l.PortB],
			}
		}
		e.gapRefs[part] = refs
	}
}

// updateTwinGaps refreshes the disagreement of every link incident to part
// (the only links whose gap can have changed in that part's solve) and
// propagates the new maxima up the tree, stopping as soon as a parent is
// unchanged.
func (e *engine) updateTwinGaps(part int) {
	if e.gapTree == nil {
		return
	}
	tree := e.gapTree
	for _, r := range e.gapRefs[part] {
		g := math.Abs(*r.a - *r.b)
		i := int(r.leaf)
		if tree[i] == g {
			continue
		}
		tree[i] = g
		for i >>= 1; i >= 1; i >>= 1 {
			m := tree[2*i]
			if right := tree[2*i+1]; right > m {
				m = right
			}
			if tree[i] == m {
				break
			}
			tree[i] = m
		}
	}
}

// applyLocal folds the latest local solution of one part into the assembled
// solution, the running error, the part's port copy and the incident twin
// gaps, touching only the entries that part owns.
func (e *engine) applyLocal(part int) {
	lx := e.subs[part].X()
	copy(e.ports[part], lx)
	for _, pair := range e.ownerOf[part] {
		li, gv := pair[0], pair[1]
		if e.exact != nil {
			d := e.x[gv] - e.exact[gv]
			e.errSq -= d * d
			d = lx[li] - e.exact[gv]
			e.errSq += d * d
		}
		e.x[gv] = lx[li]
	}
	if e.errSq < 0 {
		e.errSq = 0
	}
	e.updateTwinGaps(part)
	if e.exact == nil {
		return
	}
	e.sinceRecompute++
	if e.sinceRecompute >= errRecomputeEvery {
		e.recomputeErr()
	}
}

// recomputeErr recomputes the running squared error exactly from the assembled
// solution, discarding the accumulated incremental rounding residue.
func (e *engine) recomputeErr() {
	e.sinceRecompute = 0
	e.errSq = 0
	for i := range e.x {
		d := e.x[i] - e.exact[i]
		e.errSq += d * d
	}
}

func (e *engine) rmsError() float64 {
	if e.exact == nil {
		return math.NaN()
	}
	n := len(e.x)
	if n == 0 {
		return 0
	}
	return math.Sqrt(e.errSq / float64(n))
}

// twinGap returns the largest twin-potential disagreement over all links, in
// O(1) from the incrementally maintained segment tree.
func (e *engine) twinGap() float64 {
	if e.gapTree == nil {
		return 0
	}
	return e.gapTree[1]
}

// quiesced implements the distributed stopping rule of Options.Tol.
func (e *engine) quiesced(tol float64) bool {
	if tol <= 0 {
		return false
	}
	for i := range e.subs {
		if !e.solvedOnce[i] || e.lastChange[i] > tol {
			return false
		}
	}
	return e.twinGap() <= tol
}

// shouldStop evaluates the stopping rules at absolute virtual time now. The
// oracle rule (StopOnError, which peeks at the exact solution) is a
// measurement device and ignores the fault layer; the distributed rule
// (Tol-quiescence) is additionally gated on the fault layer being quiet —
// no open link-down window, no crashed part, no wave still unaccounted for —
// because any of those can still change a state that currently looks
// converged.
func (e *engine) shouldStop(now float64) bool {
	if e.cfg.StopOnError > 0 && e.exact != nil && e.rmsError() <= e.cfg.StopOnError {
		e.converged = true
		return true
	}
	if e.quiesced(e.cfg.Tol) && e.faultQuiet(now) {
		e.converged = true
		return true
	}
	return false
}

func (e *engine) record(now float64) {
	if !e.cfg.RecordTrace {
		return
	}
	e.trace = append(e.trace, TracePoint{
		Time:     e.timeOffset + now,
		RMSError: e.rmsError(),
		TwinGap:  e.twinGap(),
		Solves:   e.solves,
		Messages: e.messages,
	})
}

// scheduler arms a node's timers: the id comes back through OnTimer (DES) or
// fireTimer (live) at virtual time now+delay, the deadline it was armed with.
// *netsim.Simulator implements it for the DES and mixed engines; the live
// engine implements it with wall-clock timers.
type scheduler interface {
	After(node int, now, delay float64, id int)
}

// dtmNode is one part's processor: the per-processor loop of Table 1 in the
// paper, free of any clock. The DES and mixed engines drive it as a
// netsim.Node; the live engine drives the same methods from one goroutine per
// part, running Subdomain.Solve between absorb and solved outside its lock.
type dtmNode struct {
	eng *engine
	sub *Subdomain
	dim int
	adj []int
	// endsTo[i] are the end indices towards adj[i] (the subdomain's cached
	// EndsTowards table — never mutated here).
	endsTo [][]int
	// lastSent[k] is the wave last sent on end k (NaN before the first send).
	lastSent []float64
	compute  func(part, dim int) float64
	// outs is the reused outgoing-message buffer; netsim copies it into the
	// event queue before the node runs again.
	outs []netsim.Outgoing[wavePacket]
	// warmStart makes Init announce the subdomain's current outgoing waves
	// instead of the paper's zero initial condition (5.6); the mixed sync/async
	// engine uses it to resume an asynchronous window from accumulated state.
	warmStart bool

	// Fault-layer state (see faults.go); untouched in fault-free runs.
	timers     scheduler
	wdDeadline []float64 // armed watchdog deadline per neighbour
	wdBackoff  []int     // consecutive silent watchdog expiries per neighbour
	// crashed is set from the crash until the restart's re-solve is folded
	// in by solved.
	crashed bool
}

func newDTMNode(eng *engine, sub *Subdomain, compute func(part, dim int) float64) *dtmNode {
	adj := sub.AdjacentParts()
	n := &dtmNode{
		eng:      eng,
		sub:      sub,
		dim:      sub.Dim(),
		adj:      adj,
		endsTo:   make([][]int, len(adj)),
		lastSent: make([]float64, len(sub.Ends())),
		compute:  compute,
		outs:     make([]netsim.Outgoing[wavePacket], 0, len(adj)),
	}
	for i, remote := range adj {
		n.endsTo[i] = sub.EndsTowards(remote)
	}
	for k := range n.lastSent {
		n.lastSent[k] = math.NaN()
	}
	return n
}

// Init implements the paper's step 1–2: the initial boundary conditions are
// the zero state (5.6), so the initial wave u−Z·ω on every line is zero; these
// initial waves are what bootstraps the asynchronous exchange. A warm-started
// node instead announces the outgoing waves of its current state.
func (n *dtmNode) Init(now float64) []netsim.Outgoing[wavePacket] {
	if n.eng.faults != nil {
		n.initFaultNode(now)
		if n.crashed {
			// The crash window straddles the window start (mixed engine):
			// announce nothing until the restart timer fires.
			return nil
		}
	}
	return n.packetsToAll(now, !n.warmStart)
}

// OnMessages implements steps 3–3.2: fold the received remote boundary
// conditions into the local right-hand side, re-solve the (pre-factorised)
// local system, and send the new local boundary conditions to the adjacent
// subdomains.
func (n *dtmNode) OnMessages(now float64, msgs []netsim.Message[wavePacket]) []netsim.Outgoing[wavePacket] {
	if !n.absorb(msgs) {
		return nil
	}
	return n.solved(now, n.sub.Solve())
}

// absorb folds a batch of received waves into the subdomain's incoming
// boundary conditions and reports whether the part must re-solve.
func (n *dtmNode) absorb(msgs []netsim.Message[wavePacket]) bool {
	fresh := 0
	for i := range msgs {
		entries := msgs[i].Payload.entries
		if f := n.eng.faults; f != nil {
			if n.crashed {
				// A crashed process loses everything delivered to it; the
				// senders' watchdogs recover the state after the restart.
				continue
			}
			pid := n.eng.pairID(msgs[i].From, n.sub.Part())
			if !f.apply(pid, msgs[i].Payload.seq) {
				// Duplicate, or overtaken by a newer wave on the same pair
				// that a shorter jittered path delivered first.
				continue
			}
		}
		fresh++
		for _, en := range entries {
			n.sub.SetIncomingByLink(en.linkID, en.wave)
		}
		if n.eng.faults == nil {
			// Under faults a duplicated send aliases one entries buffer from
			// two delivery events, so recycling a delivered buffer would hand
			// it to a new sender while the duplicate still reads it. Buffers
			// of delivered packets are left to the GC then; only the
			// fault-free engine keeps its zero-alloc recycling.
			n.eng.entryPool.Put(entries)
		}
	}
	// Under faults, a batch of which nothing survived deduplication (or that
	// reached a crashed process) changed no state, so re-solving and
	// re-announcing would only amplify the duplicate traffic.
	return fresh > 0 || n.eng.faults == nil
}

// solved folds the part's latest local solve, whose largest port change is
// change, into the engine — completing a restart if one is in progress — and
// returns the new waves to announce.
func (n *dtmNode) solved(now, change float64) []netsim.Outgoing[wavePacket] {
	part := n.sub.Part()
	n.eng.lastChange[part] = change
	n.eng.solvedOnce[part] = true
	n.eng.solves++
	n.eng.applyLocal(part)
	if n.crashed {
		n.crashed = false
		n.eng.faults.crashedParts--
	}
	if n.eng.cfg.Observer != nil {
		n.eng.cfg.Observer(now, part, n.sub.X())
	}
	return n.packetsToAll(now, false)
}

// ComputeTime implements netsim.Node.
func (n *dtmNode) ComputeTime(batch int) float64 {
	return n.compute(n.sub.Part(), n.dim)
}

// packetsToAll builds one wave packet per adjacent subdomain. When initial is
// true the waves are the zero initial condition; otherwise they are the waves
// of the latest local solve, filtered by the send threshold. Entry buffers
// come from the engine's pool and the outgoing slice is reused, so the steady
// state allocates nothing. Under a fault spec every packet is sequence-
// numbered and each send re-arms the watchdog toward its destination.
func (n *dtmNode) packetsToAll(now float64, initial bool) []netsim.Outgoing[wavePacket] {
	threshold := n.eng.cfg.SendThreshold
	part := n.sub.Part()
	ends := n.sub.Ends()
	n.outs = n.outs[:0]
	for ai, remote := range n.adj {
		toward := n.endsTo[ai]
		entries := n.eng.entryPool.Get(len(toward))
		changed := initial
		for _, k := range toward {
			var w float64
			if !initial {
				w = n.sub.OutgoingWave(k)
			}
			if math.IsNaN(n.lastSent[k]) || math.Abs(w-n.lastSent[k]) > threshold {
				changed = true
			}
			entries = append(entries, waveEntry{linkID: ends[k].LinkID, wave: w})
		}
		if !changed {
			n.eng.entryPool.Put(entries)
			continue
		}
		for i, k := range toward {
			n.lastSent[k] = entries[i].wave
		}
		pkt := wavePacket{entries: entries}
		if f := n.eng.faults; f != nil {
			pkt.seq = f.sendSeq(n.eng.pairID(part, remote))
			n.wdBackoff[ai] = 0
			n.armWatchdog(now, ai)
		}
		n.eng.messages += 1
		n.outs = append(n.outs, netsim.Outgoing[wavePacket]{To: remote, Payload: pkt})
	}
	return n.outs
}

// solveDES runs the fully asynchronous DTM on the deterministic
// discrete-event engine. cfg must be normalized and validated. The ctx is
// consulted only when it can fire (Solve wires MaxWallTime into it): a
// Background context leaves the hot path exactly as fast — and the run
// byte-identical — as before the context-first API existed.
func solveDES(ctx context.Context, p *Problem, cfg *Config) (*Result, error) {
	subs, zs, err := p.BuildSubdomains(cfg.Impedance, cfg.LocalSolver)
	if err != nil {
		return nil, err
	}

	eng := newEngine(p, cfg, subs)
	if len(p.Partition.Links) == 0 {
		return solveSingle(eng, zs), nil
	}
	compute := cfg.computeTimeFn(p)
	dtmNodes := make([]*dtmNode, len(subs))
	nodes := make([]netsim.Node[wavePacket], len(subs))
	for i, s := range subs {
		dtmNodes[i] = newDTMNode(eng, s, compute)
		nodes[i] = dtmNodes[i]
	}
	sim := netsim.New(nodes, func(from, to int) float64 { return p.Delay(from, to) })
	if cfg.Faults.Enabled() {
		if err := eng.initFaults(cfg.Faults); err != nil {
			return nil, err
		}
		sim.SetFaultPolicy(eng.faults.ctl.Fate)
	}
	for _, n := range dtmNodes {
		n.timers = sim
	}
	sim.SetObserver(func(now float64, node int) { eng.record(now) })
	if done := ctx.Done(); done != nil {
		sim.SetStopCondition(func(now float64) bool {
			select {
			case <-done:
				eng.interrupted = true
				return true
			default:
			}
			return eng.shouldStop(now)
		})
	} else {
		sim.SetStopCondition(func(now float64) bool { return eng.shouldStop(now) })
	}

	stats := sim.Run(cfg.MaxTime)
	res := finish(eng, zs, stats.Time, stats.Messages, eng.converged)
	return res, deadlineErr(eng.interrupted)
}

// solveSingle solves the degenerate partition of a single subdomain (no twin
// links), which is the whole system: one local solve is the exact answer.
func solveSingle(eng *engine, zs []float64) *Result {
	for part, s := range eng.subs {
		s.Solve()
		eng.solves++
		eng.applyLocal(part)
		eng.solvedOnce[part] = true
		eng.lastChange[part] = 0
	}
	eng.record(0)
	return finish(eng, zs, 0, 0, true)
}

func finish(eng *engine, zs []float64, finalTime float64, deliveredMessages int, converged bool) *Result {
	p := eng.prob
	x := eng.x.Clone()
	res := &Result{
		X:          x,
		Converged:  converged,
		FinalTime:  finalTime,
		TwinGap:    eng.twinGap(),
		Solves:     eng.solves,
		Messages:   deliveredMessages,
		Trace:      downsample(eng.trace, eng.cfg.TraceMaxPoints),
		Impedances: zs,
	}
	if eng.exact != nil {
		res.RMSError = x.RMSError(eng.exact)
	} else {
		res.RMSError = math.NaN()
	}
	r := p.System.A.Residual(x, p.System.B)
	bn := p.System.B.Norm2()
	if bn == 0 {
		bn = 1
	}
	res.Residual = r.Norm2() / bn
	if f := eng.faults; f != nil {
		st := f.ctl.Stats()
		fs := f.stats
		fs.Dropped, fs.Duplicated, fs.Delayed = st.Dropped, st.Duplicated, st.Delayed
		res.Faults = &fs
	}
	return res
}
