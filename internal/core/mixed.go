package core

import (
	"context"
	"math"

	"repro/internal/netsim"
)

// solveMixed runs the sync-async-mixed variant: asynchronous DES windows
// separated by globally synchronous sweeps, all sharing one virtual time
// axis. cfg must be normalized and validated.
func solveMixed(ctx context.Context, p *Problem, cfg *Config) (*Result, error) {
	subs, zs, err := p.BuildSubdomains(cfg.Impedance, cfg.LocalSolver)
	if err != nil {
		return nil, err
	}
	eng := newEngine(p, cfg, subs)
	if cfg.Faults.Enabled() {
		if err := eng.initFaults(cfg.Faults); err != nil {
			return nil, err
		}
	}

	if len(p.Partition.Links) == 0 {
		return solveSingle(eng, zs), nil
	}

	syncCost := cfg.SyncSweepCost
	if syncCost <= 0 {
		syncCost = slowestAdjacentRoundTrip(p)
	}
	compute := cfg.computeTimeFn(p)
	done := ctx.Done()

	now := 0.0
	delivered := 0
	asyncPhases, syncSweepsDone := 0, 0
	for now < cfg.MaxTime && !eng.converged && !eng.interrupted {
		// Asynchronous phase: a DES window over the remaining budget.
		window := math.Min(cfg.AsyncWindow, cfg.MaxTime-now)
		dtmNodes := make([]*dtmNode, len(subs))
		nodes := make([]netsim.Node[wavePacket], len(subs))
		for i, s := range subs {
			node := newDTMNode(eng, s, compute)
			node.warmStart = asyncPhases > 0 || syncSweepsDone > 0
			dtmNodes[i] = node
			nodes[i] = node
		}
		eng.timeOffset = now
		off := now
		sim := netsim.New(nodes, func(from, to int) float64 { return p.Delay(from, to) })
		if eng.faults != nil {
			// The fault spec's windows are on the stitched absolute axis; the
			// DES window runs on a relative one.
			sim.SetFaultPolicy(func(from, to int, t, d float64) []float64 {
				return eng.faults.ctl.Fate(from, to, off+t, d)
			})
		}
		for _, n := range dtmNodes {
			n.timers = sim
		}
		sim.SetObserver(func(t float64, node int) { eng.record(t) })
		if done != nil {
			sim.SetStopCondition(func(t float64) bool {
				select {
				case <-done:
					eng.interrupted = true
					return true
				default:
				}
				return eng.shouldStop(off + t)
			})
		} else {
			sim.SetStopCondition(func(t float64) bool { return eng.shouldStop(off + t) })
		}
		stats := sim.Run(window)
		if eng.faults != nil {
			// The window's nodes and their timers end here; a crash window
			// that outlasts it is re-entered by the next window's Init, and
			// the barrier sweeps read the spec's windows instead.
			eng.faults.crashedParts = 0
			clear(eng.faults.crashArmed)
		}
		delivered += stats.Messages
		now += math.Min(window, stats.Time)
		asyncPhases++
		if eng.converged || eng.interrupted || now >= cfg.MaxTime {
			break
		}

		// Synchronous phase: VTM-style sweeps at a barrier, each one charged the
		// slowest round trip of the machine.
		for s := 0; s < cfg.SyncSweeps && now < cfg.MaxTime && !eng.converged; s++ {
			// A part inside a crash window at the barrier instant is down: it
			// neither solves nor exchanges waves this sweep.
			crashed := func(part int) bool {
				return eng.faults != nil && eng.faults.spec.CrashedAt(part, now)
			}
			for part, sub := range subs {
				if crashed(part) {
					continue
				}
				eng.lastChange[part] = sub.Solve()
				eng.solvedOnce[part] = true
				eng.solves++
				eng.applyLocal(part)
			}
			// Simultaneous wave exchange over every link, both directions.
			type pending struct {
				sub  *Subdomain
				link int
				wave float64
			}
			var updates []pending
			exchanged := 0
			for _, sub := range subs {
				if crashed(sub.Part()) {
					continue
				}
				ends := sub.Ends()
				for k := range ends {
					if crashed(ends[k].Remote) {
						continue
					}
					updates = append(updates, pending{
						sub:  subs[ends[k].Remote],
						link: ends[k].LinkID,
						wave: sub.OutgoingWave(k),
					})
					exchanged++
				}
			}
			for _, u := range updates {
				u.sub.SetIncomingByLink(u.link, u.wave)
			}
			eng.messages += exchanged
			delivered += exchanged
			if eng.faults != nil {
				// The barrier exchanged (or consciously skipped) everything:
				// no wave is left in flight.
				eng.faults.settle()
			}
			now += syncCost
			syncSweepsDone++
			eng.timeOffset = 0
			eng.record(now)
			if eng.shouldStop(now) {
				break
			}
		}
	}

	res := finish(eng, zs, math.Min(now, cfg.MaxTime), delivered, eng.converged)
	res.AsyncPhases, res.SyncSweepsDone = asyncPhases, syncSweepsDone
	return res, deadlineErr(eng.interrupted)
}

// slowestAdjacentRoundTrip returns the largest delay(a→b)+delay(b→a) over
// pairs of adjacent subdomains — the per-sweep price of a global barrier on
// the problem's machine.
func slowestAdjacentRoundTrip(p *Problem) float64 {
	worst := 0.0
	for a, neighbours := range p.Partition.AdjacentParts() {
		for _, b := range neighbours {
			if rt := p.Delay(a, b) + p.Delay(b, a); rt > worst {
				worst = rt
			}
		}
	}
	if worst == 0 {
		worst = 1
	}
	return worst
}
