package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
)

// solveLive runs DTM with one goroutine per subdomain and real (scaled)
// communication delays, until the stopping rule fires or the ctx ends the run
// (Solve wires MaxWallTime into it). Each goroutine drives its part's dtmNode
// — the very node the DES engine runs, with the same sequence numbers,
// watchdogs, crash-restart and stopping rule — under one engine mutex that is
// released only around Subdomain.Solve. The run is not deterministic — that
// is the point — but by Theorem 6.1 it converges to the same solution for any
// interleaving. cfg must be normalized and validated.
func solveLive(ctx context.Context, p *Problem, cfg *Config) (*Result, error) {
	subs, zs, err := p.BuildSubdomains(cfg.Impedance, cfg.LocalSolver)
	if err != nil {
		return nil, err
	}
	eng := newEngine(p, cfg, subs)
	if len(p.Partition.Links) == 0 {
		return solveSingle(eng, zs), nil
	}
	if cfg.Faults.Enabled() {
		if err := eng.initFaults(cfg.Faults); err != nil {
			return nil, err
		}
	}
	r := &liveRun{
		eng:   eng,
		scale: cfg.TimeScale,
		nodes: make([]*dtmNode, len(subs)),
		boxes: make([]mailbox, len(subs)),
		done:  make(chan struct{}),
	}
	for i, s := range subs {
		r.nodes[i] = newDTMNode(eng, s, nil)
		r.nodes[i].timers = r
		r.boxes[i].wake = make(chan struct{}, 1)
	}

	r.start = time.Now()
	r.mu.Lock()
	for part, n := range r.nodes {
		r.send(part, 0, n.Init(0))
	}
	r.mu.Unlock()
	var wg sync.WaitGroup
	for part := range r.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(part)
		}()
	}
	select {
	case <-ctx.Done():
	case <-r.done:
	}
	r.mu.Lock()
	if !r.halted.Load() {
		eng.interrupted = true
		r.halt()
	}
	r.mu.Unlock()
	wg.Wait()

	res := finish(eng, zs, r.end.Sub(r.start).Seconds(), int(r.delivered.Load()), eng.converged)
	return res, deadlineErr(eng.interrupted)
}

// liveRun is one live solve: the part nodes on goroutines and wall-clock
// timers. Virtual time — the axis of the topology's delays and of the fault
// spec — is wall time since start divided by scale.
type liveRun struct {
	// mu guards eng, every node, and end. It is held for every node
	// callback; a part's goroutine releases it only while it runs
	// Subdomain.Solve, which touches nothing but that part's own Subdomain.
	mu    sync.Mutex
	eng   *engine
	nodes []*dtmNode
	end   time.Time

	boxes []mailbox
	// halted is set (under mu) and done closed when the run ends; after that
	// no node callback runs and the timer callbacks deliver nothing.
	halted    atomic.Bool
	done      chan struct{}
	delivered atomic.Int64

	start time.Time
	scale time.Duration
}

// mailbox is a part's unbounded inbox: packets delivered and timers fired
// since its goroutine last looked. wake holds at most one pending signal.
type mailbox struct {
	mu     sync.Mutex
	msgs   []netsim.Message[wavePacket]
	timers []liveTimer
	wake   chan struct{}
}

// liveTimer is a fired timer: its id and the virtual deadline it was armed
// with. The node sees the deadline as the timer's time, exactly as the DES
// engine hands it the event time, so a superseded watchdog is recognised by
// its deadline rather than by a rounded reading of the wall clock.
type liveTimer struct {
	id int
	at float64
}

func (b *mailbox) ring() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// wall converts a span of virtual time into wall-clock time.
func (r *liveRun) wall(units float64) time.Duration {
	return time.Duration(float64(r.scale) * units)
}

// now returns the current virtual time.
func (r *liveRun) now() float64 {
	return float64(time.Since(r.start)) / float64(r.scale)
}

// halt ends the run; the caller holds mu.
func (r *liveRun) halt() {
	r.halted.Store(true)
	r.end = time.Now()
	close(r.done)
}

// After implements scheduler: the timer is posted to the node's mailbox when
// the wall clock reaches virtual time now+delay.
func (r *liveRun) After(node int, now, delay float64, id int) {
	at := now + delay
	time.AfterFunc(time.Until(r.start.Add(r.wall(at))), func() {
		if r.halted.Load() {
			return
		}
		box := &r.boxes[node]
		box.mu.Lock()
		box.timers = append(box.timers, liveTimer{id: id, at: at})
		box.mu.Unlock()
		box.ring()
	})
}

// send schedules every outgoing packet of part from (sent at virtual time now)
// to arrive after the scaled link delay, or after each delay the fault
// controller's fate assigns to its copies. The caller holds mu.
func (r *liveRun) send(from int, now float64, outs []netsim.Outgoing[wavePacket]) {
	for _, o := range outs {
		delay := r.eng.prob.Delay(from, o.To)
		if f := r.eng.faults; f != nil {
			for _, fd := range f.ctl.Fate(from, o.To, now, delay) {
				r.post(from, o.To, o.Payload, fd)
			}
			continue
		}
		r.post(from, o.To, o.Payload, delay)
	}
}

func (r *liveRun) post(from, to int, pkt wavePacket, delay float64) {
	time.AfterFunc(r.wall(delay), func() {
		if r.halted.Load() {
			return
		}
		box := &r.boxes[to]
		box.mu.Lock()
		box.msgs = append(box.msgs, netsim.Message[wavePacket]{From: from, To: to, Payload: pkt})
		box.mu.Unlock()
		r.delivered.Add(1)
		box.ring()
	})
}

// run is the goroutine of one part: it takes whatever its mailbox holds,
// fires the timers, and consumes the packets as one batch, like the DES
// engine's wake-up, until the run halts.
func (r *liveRun) run(part int) {
	box := &r.boxes[part]
	var msgs []netsim.Message[wavePacket]
	var timers []liveTimer
	for {
		select {
		case <-r.done:
			return
		case <-box.wake:
		}
		box.mu.Lock()
		msgs, box.msgs = box.msgs, msgs[:0]
		timers, box.timers = box.timers, timers[:0]
		box.mu.Unlock()
		for _, t := range timers {
			if !r.timer(part, t) {
				return
			}
		}
		if len(msgs) > 0 && !r.activate(part, msgs) {
			return
		}
		clear(msgs)
	}
}

// timer fires one timer of part. It reports false once the run has halted.
func (r *liveRun) timer(part int, t liveTimer) bool {
	r.mu.Lock()
	if r.halted.Load() {
		r.mu.Unlock()
		return false
	}
	outs, restart := r.nodes[part].fireTimer(t.at, t.id)
	if restart {
		return r.solve(part)
	}
	r.send(part, t.at, outs)
	r.check(r.now())
	r.mu.Unlock()
	return true
}

// activate folds a batch of packets into part and re-solves when it must. It
// reports false once the run has halted.
func (r *liveRun) activate(part int, msgs []netsim.Message[wavePacket]) bool {
	r.mu.Lock()
	if r.halted.Load() {
		r.mu.Unlock()
		return false
	}
	if !r.nodes[part].absorb(msgs) {
		r.mu.Unlock()
		return true
	}
	return r.solve(part)
}

// solve re-solves part with mu released, then folds the solve in, announces
// the new waves and evaluates the stopping rule. The caller holds mu; solve
// releases it. It reports false once the run has halted.
func (r *liveRun) solve(part int) bool {
	n := r.nodes[part]
	r.mu.Unlock()
	change := n.sub.Solve()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.halted.Load() {
		return false
	}
	now := r.now()
	r.send(part, now, n.solved(now, change))
	r.eng.record(time.Since(r.start).Seconds())
	r.check(now)
	return !r.halted.Load()
}

// check evaluates the stopping rule at virtual time now and halts the run
// when it fires. The caller holds mu.
func (r *liveRun) check(now float64) {
	if r.eng.shouldStop(now) {
		r.halt()
	}
}
