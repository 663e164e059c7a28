package core

import (
	"context"
	"math"

	"repro/internal/sparse"
)

// solveVTM runs the Virtual Transmission Method: lock-step sweeps with a
// simultaneous wave exchange after each. cfg must be normalized and
// validated.
func solveVTM(ctx context.Context, p *Problem, cfg *Config) (*Result, error) {
	subs, zs, err := p.BuildSubdomains(cfg.Impedance, cfg.LocalSolver)
	if err != nil {
		return nil, err
	}

	links := p.Partition.Links
	res := &Result{Impedances: zs, RMSError: math.NaN()}

	assemble := func() sparse.Vec {
		locals := make([]sparse.Vec, len(subs))
		for i, s := range subs {
			locals[i] = s.X()
		}
		return p.Partition.AssembleOwner(locals)
	}
	twinGap := func() float64 {
		var m float64
		for _, l := range links {
			d := math.Abs(subs[l.PartA].PortPotential(l.PortA) - subs[l.PartB].PortPotential(l.PortB))
			if d > m {
				m = d
			}
		}
		return m
	}

	done := ctx.Done()
	interrupted := false
	for it := 1; it <= cfg.MaxIterations; it++ {
		if done != nil {
			select {
			case <-done:
				interrupted = true
			default:
			}
			if interrupted {
				break
			}
		}
		// Synchronous sweep: every subdomain solves with last iteration's waves.
		maxChange := 0.0
		for _, s := range subs {
			if c := s.Solve(); c > maxChange {
				maxChange = c
			}
		}
		// Simultaneous exchange: every link carries the new waves both ways.
		type pending struct {
			sub  *Subdomain
			link int
			wave float64
		}
		var updates []pending
		for _, s := range subs {
			for k := range s.Ends() {
				updates = append(updates, pending{
					sub:  subs[s.Ends()[k].Remote],
					link: s.Ends()[k].LinkID,
					wave: s.OutgoingWave(k),
				})
			}
		}
		for _, u := range updates {
			u.sub.SetIncomingByLink(u.link, u.wave)
		}

		res.Iterations = it
		res.Solves = it * len(subs)
		res.Messages = it * len(links) * 2
		gap := twinGap()
		var rms float64 = math.NaN()
		if cfg.Exact != nil {
			rms = assemble().RMSError(cfg.Exact)
		}
		if cfg.RecordTrace {
			res.Trace = append(res.Trace, TracePoint{
				Time:     float64(it),
				RMSError: rms,
				TwinGap:  gap,
				Solves:   it * len(subs),
				Messages: it * len(links) * 2,
			})
		}
		if cfg.StopOnError > 0 && !math.IsNaN(rms) && rms <= cfg.StopOnError {
			res.Converged = true
			break
		}
		if cfg.Tol > 0 && gap <= cfg.Tol && maxChange <= cfg.Tol {
			res.Converged = true
			break
		}
	}

	res.X = assemble()
	res.FinalTime = float64(res.Iterations)
	res.TwinGap = twinGap()
	if cfg.Exact != nil {
		res.RMSError = res.X.RMSError(cfg.Exact)
	}
	r := p.System.A.Residual(res.X, p.System.B)
	bn := p.System.B.Norm2()
	if bn == 0 {
		bn = 1
	}
	res.Residual = r.Norm2() / bn
	return res, deadlineErr(interrupted)
}
