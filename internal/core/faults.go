package core

import (
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/netsim"
)

// This file holds the fault-tolerance layer of the part nodes every
// asynchronous engine (DES, mixed, live) runs: per-directed-pair sequence
// numbers with last-writer-wins deduplication, sender-side watchdog
// retransmission with exponential backoff, crash-restart from in-memory
// snapshots, and the fault-aware part of the stopping rule.
//
// Everything here is inert when Options.Faults is nil or disabled: no timers
// are armed, packets carry seq 0, and shouldStop reduces to the fault-free
// rule — so fault-free runs stay byte-identical to previous releases.

// faultState is the engine's fault bookkeeping, allocated only when a run has
// an enabled fault spec.
type faultState struct {
	spec *chaos.Spec
	ctl  *chaos.Controller

	// sentSeq, neededSeq and appliedSeq index directed part pairs
	// (from·nParts + to). sentSeq is the newest sequence number assigned to a
	// wave on the pair; appliedSeq the newest one the receiver has folded in;
	// neededSeq the newest *state-bearing* wave — a regular send announcing a
	// changed state, as opposed to a watchdog retransmission of state the
	// receiver may well already have. A pair is pending while appliedSeq <
	// neededSeq: the receiver has not yet seen the sender's announced state,
	// so the globally visible twin gaps are not the whole story and
	// convergence must not be declared. Retransmissions deliberately do not
	// raise neededSeq — they carry no new state, so losing one must not block
	// the detector for another backoff period (it would oscillate forever on
	// a lossy link). Applying any seq ≥ neededSeq settles the pair, because
	// every wave (retransmissions included) carries the sender's state at
	// send time (last-writer-wins).
	sentSeq    []uint64
	neededSeq  []uint64
	appliedSeq []uint64
	// pendingPairs counts pairs with appliedSeq < neededSeq.
	pendingPairs int
	// crashArmed[i] is set while the timer of the spec's crash i is armed and
	// has not fired; crashedParts counts parts whose process is down:
	// crashed, or restarted but not yet re-solved. On a real clock a timer
	// can run late, so the stopping rule reads these, not just the spec's
	// schedule.
	crashArmed   []bool
	crashedParts int

	stats FaultStats
}

// initFaults attaches an enabled fault spec to the engine and validates that
// the spec's part references exist in this partition.
func (e *engine) initFaults(spec *chaos.Spec) error {
	n := len(e.subs)
	for _, c := range spec.Crashes {
		if c.Part >= n {
			return fmt.Errorf("core: fault spec crashes part %d but the partition has only %d parts", c.Part, n)
		}
	}
	for _, w := range spec.Down {
		if w.From >= n || w.To >= n {
			return fmt.Errorf("core: fault spec window %d>%d references a part outside the %d-part partition", w.From, w.To, n)
		}
	}
	// The fault-mode SendThreshold default (Tol/100, floor 1e-12) is applied
	// by Config.normalize — the single home of that rule for every engine.
	e.faults = &faultState{
		spec:       spec,
		ctl:        chaos.NewController(spec, n),
		sentSeq:    make([]uint64, n*n),
		neededSeq:  make([]uint64, n*n),
		appliedSeq: make([]uint64, n*n),
		crashArmed: make([]bool, len(spec.Crashes)),
	}
	return nil
}

func (e *engine) pairID(from, to int) int { return from*len(e.subs) + to }

// retransmitSeq assigns the next sequence number for a watchdog
// retransmission: the pair's pending status is unchanged.
func (f *faultState) retransmitSeq(pid int) uint64 {
	f.sentSeq[pid]++
	return f.sentSeq[pid]
}

// sendSeq assigns the next sequence number for a state-bearing wave and marks
// the pair pending until the receiver applies it (or any later wave).
func (f *faultState) sendSeq(pid int) uint64 {
	f.sentSeq[pid]++
	if f.appliedSeq[pid] >= f.neededSeq[pid] {
		f.pendingPairs++
	}
	f.neededSeq[pid] = f.sentSeq[pid]
	return f.sentSeq[pid]
}

// apply reports whether a received wave with the given sequence number is
// fresh on its pair. A fresh wave advances appliedSeq, retiring every earlier
// wave on the pair; a stale one (duplicate, or overtaken by a newer delivery)
// must be discarded by the caller.
func (f *faultState) apply(pid int, seq uint64) bool {
	if seq <= f.appliedSeq[pid] {
		return false
	}
	if f.appliedSeq[pid] < f.neededSeq[pid] && seq >= f.neededSeq[pid] {
		f.pendingPairs--
	}
	f.appliedSeq[pid] = seq
	return true
}

// settle marks every assigned sequence number as applied — the mixed engine
// calls it after a synchronous barrier sweep, which exchanges all waves
// reliably.
func (f *faultState) settle() {
	copy(f.appliedSeq, f.sentSeq)
	f.pendingPairs = 0
}

// faultQuiet reports whether the fault layer permits declaring convergence at
// absolute virtual time now: no link-down window is open; no part is inside a
// crash window, actually down (crashed, or restarted but not yet re-solved),
// or past its crash time with the crash timer not yet fired — on a real clock
// the schedule and the parts can disagree; and no wave is unaccounted for (in
// flight, lost, or pending retransmission). Without it, the twin-gap rule
// could declare convergence on a state that a delayed or retransmitted wave,
// or a crash-restart, is still going to change.
func (e *engine) faultQuiet(now float64) bool {
	f := e.faults
	if f == nil {
		return true
	}
	if f.pendingPairs != 0 || f.crashedParts != 0 || f.spec.AnyDownAt(now) || f.spec.AnyCrashedAt(now) {
		return false
	}
	for ci, armed := range f.crashArmed {
		if armed && f.spec.Crashes[ci].At <= now {
			return false
		}
	}
	return true
}

// Timer-id layout per node (timer ids are scoped to the node):
// ids 0..len(adj)-1 are the per-neighbour watchdogs, len(adj) is the snapshot
// tick, and above that crashes and restarts alternate (crash i → base+2i,
// restart i → base+2i+1, indexing the spec's crash list).
func (n *dtmNode) idSnapshot() int  { return len(n.adj) }
func (n *dtmNode) idCrashBase() int { return len(n.adj) + 1 }

// initFaultNode sizes the node's watchdog state and schedules this part's
// crash timers and (when crashes exist) the periodic snapshot tick. Called
// from Init when faults are enabled.
func (n *dtmNode) initFaultNode(now float64) {
	n.wdDeadline = make([]float64, len(n.adj))
	n.wdBackoff = make([]int, len(n.adj))
	spec := n.eng.faults.spec
	part := n.sub.Part()
	absNow := n.eng.timeOffset + now
	for ci, c := range spec.Crashes {
		if c.Part != part {
			continue
		}
		switch {
		case c.At > absNow:
			n.eng.faults.crashArmed[ci] = true
			n.timers.After(part, now, c.At-absNow, n.idCrashBase()+2*ci)
		case c.At+c.RestartAfter > absNow:
			// The crash window straddles this DES window's start (mixed
			// engine): begin crashed and schedule only the restart.
			n.crashed = true
			n.eng.faults.crashedParts++
			n.timers.After(part, now, c.At+c.RestartAfter-absNow, n.idCrashBase()+2*ci+1)
		}
	}
	if len(spec.Crashes) > 0 {
		n.timers.After(part, now, spec.SnapshotInterval(), n.idSnapshot())
	}
}

// armWatchdog (re)arms the retransmission watchdog toward neighbour adj[ai].
// The timeout is WatchdogMult × the link delay, doubled per consecutive silent
// expiry up to the backoff cap. Stale timer events — ones superseded by a
// newer arming — are recognised in watchdogFired by comparing the deadline
// they were armed with against wdDeadline, so nothing needs to be cancelled.
func (n *dtmNode) armWatchdog(now float64, ai int) {
	spec := n.eng.faults.spec
	part := n.sub.Part()
	t := spec.WatchdogTimeout(n.eng.prob.Delay(part, n.adj[ai]))
	t *= float64(uint64(1) << uint(n.wdBackoff[ai]))
	n.wdDeadline[ai] = now + t
	n.timers.After(part, now, t, ai)
}

// OnTimer dispatches the node's timer events: watchdog expiries, snapshot
// ticks, and the crash/restart schedule. It implements netsim.TimerNode.
func (n *dtmNode) OnTimer(now float64, id int) []netsim.Outgoing[wavePacket] {
	outs, restart := n.fireTimer(now, id)
	if restart {
		return n.solved(now, n.sub.Solve())
	}
	return outs
}

// fireTimer handles timer id armed for virtual time now. It returns the waves
// to send, or restart=true when the part has just restarted and must re-solve
// (then solved announces the result).
func (n *dtmNode) fireTimer(now float64, id int) (outs []netsim.Outgoing[wavePacket], restart bool) {
	switch {
	case id < len(n.adj):
		return n.watchdogFired(now, id), false
	case id == n.idSnapshot():
		n.snapshotTick(now)
		return nil, false
	default:
		return nil, n.crashTimer(now, id)
	}
}

// watchdogFired re-announces the newest outgoing waves toward one neighbour.
// DTM has no acknowledgements, so the watchdog cannot know whether the last
// wave was lost; it retransmits the current state unconditionally, which is
// safe because waves are idempotent boundary conditions and the receiver
// deduplicates by sequence number. Backoff keeps a converged-but-lossy system
// from chattering at the full watchdog rate forever.
func (n *dtmNode) watchdogFired(now float64, ai int) []netsim.Outgoing[wavePacket] {
	if n.crashed || now < n.wdDeadline[ai] {
		// Crashed processes run no timers; an event armed for an earlier
		// deadline was superseded by a more recent send re-arming the
		// watchdog.
		return nil
	}
	f := n.eng.faults
	part := n.sub.Part()
	toward := n.endsTo[ai]
	ends := n.sub.Ends()
	entries := n.eng.entryPool.Get(len(toward))
	for _, k := range toward {
		w := n.sub.OutgoingWave(k)
		n.lastSent[k] = w
		entries = append(entries, waveEntry{linkID: ends[k].LinkID, wave: w})
	}
	f.stats.Retransmissions++
	n.eng.messages++
	if n.wdBackoff[ai] < f.spec.BackoffCap() {
		n.wdBackoff[ai]++
	}
	n.armWatchdog(now, ai)
	n.outs = n.outs[:0]
	n.outs = append(n.outs, netsim.Outgoing[wavePacket]{
		To:      n.adj[ai],
		Payload: wavePacket{seq: f.retransmitSeq(n.eng.pairID(part, n.adj[ai])), entries: entries},
	})
	return n.outs
}

// snapshotTick records the periodic recovery snapshot and re-arms the tick.
// A crashed process takes no snapshot (it is not running), but the tick keeps
// going so snapshots resume after the restart.
func (n *dtmNode) snapshotTick(now float64) {
	if !n.crashed {
		n.sub.Snapshot()
		n.eng.faults.stats.Snapshots++
	}
	n.timers.After(n.sub.Part(), now, n.eng.faults.spec.SnapshotInterval(), n.idSnapshot())
}

// crashTimer handles the crash/restart schedule and reports whether the part
// restarted. A crash silences the node: incoming messages are discarded and
// timers ignored until the restart, which models a process that lost its
// in-memory state. The restart rebuilds the factorisation from the cached
// local matrix and rolls the mutable state back to the latest snapshot; the
// caller then re-solves and solved re-announces the waves to every neighbour
// — recovery is local, the rest of the computation never stops.
func (n *dtmNode) crashTimer(now float64, id int) bool {
	f := n.eng.faults
	part := n.sub.Part()
	rel := id - n.idCrashBase()
	if rel%2 == 0 { // crash
		ci := rel / 2
		f.crashArmed[ci] = false
		if !n.crashed {
			n.crashed = true
			f.crashedParts++
		}
		f.stats.Crashes++
		n.timers.After(part, now, f.spec.Crashes[ci].RestartAfter, id+1)
		return false
	}
	// Restart; n.crashed stays set until solved folds the re-solve in.
	f.stats.Restarts++
	if err := n.sub.Refactor(); err != nil {
		// The same matrix factorised successfully at start-up; a failure here
		// is a programming error, not a runtime condition.
		panic(err)
	}
	n.sub.RestoreSnapshot()
	// The restarted process has no memory of what it last sent; clear the
	// send-threshold history so the re-announcement reaches everyone.
	for k := range n.lastSent {
		n.lastSent[k] = math.NaN()
	}
	return true
}
