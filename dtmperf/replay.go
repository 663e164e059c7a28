package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/sparse"
)

// factorLayer is what the replay learns about the factor and local-solve
// layers of one built problem, per part.
type factorLayer struct {
	buildSubdomains time.Duration
	nnzL            []float64
	factorBytes     []float64
	solveNS         []float64
	backends        []string
}

// replayFactor measures the layers core.Solve runs inside itself and offers
// no hook for: it times Problem.BuildSubdomains (the impedance assignment and
// every local factorisation), re-factorises each part's local matrix to read
// the factor's size, and times Subdomain.Solve per part.
func replayFactor(tr *tracer, parent int, p *core.Problem) (*factorLayer, error) {
	fl := &factorLayer{}
	var subs []*core.Subdomain
	var zs []float64
	var builds []float64
	for i := 0; i < 3; i++ {
		id := tr.begin("core.Problem.BuildSubdomains", parent)
		var err error
		subs, zs, err = p.BuildSubdomains(nil, "")
		tr.end(id)
		if err != nil {
			return nil, err
		}
		builds = append(builds, tr.duration(id).Seconds())
	}
	fl.buildSubdomains = time.Duration(median(builds) * float64(time.Second))

	for i, ps := range p.Partition.Subdomains {
		// The local matrix of eq. (5.9), as core.NewSubdomain assembles it.
		diag := sparse.NewVec(ps.Dim())
		for _, l := range p.Partition.LinksOfPart(i) {
			port := l.PortA
			if l.PartB == i {
				port = l.PortB
			}
			diag[port] += 1 / zs[l.ID]
		}
		f, err := factor.New("", ps.A.AddDiag(diag))
		if err != nil {
			return nil, fmt.Errorf("factorising part %d: %w", i, err)
		}
		n := float64(ps.Dim())
		nnzL := n * (n + 1) / 2 // dense factors store the full triangle
		if s, ok := f.(interface{ NNZL() int }); ok {
			nnzL = float64(s.NNZL())
		}
		bytes := 12 * nnzL // value + index
		if s, ok := f.(interface{ FactorBytes() int64 }); ok {
			bytes = float64(s.FactorBytes())
		}
		fl.nnzL = append(fl.nnzL, nnzL)
		fl.factorBytes = append(fl.factorBytes, bytes)
		fl.backends = append(fl.backends, f.Backend())
	}

	for _, sd := range subs {
		id := tr.begin("core.Subdomain.Solve", parent)
		for i := 0; i < 3; i++ {
			sd.Solve()
		}
		start := now()
		reps := 0
		for reps < 20 || time.Since(start.wall) < 10*time.Millisecond {
			sd.Solve()
			reps++
		}
		// CPU time, like solve_s, so core.engine_self_s compares like with like.
		ns := float64(start.to(now()).cpu.Nanoseconds()) / float64(reps)
		tr.end(id)
		fl.solveNS = append(fl.solveNS, ns)
	}
	return fl, nil
}

// layers turns the replay into per-layer metrics for a solve whose parts
// solved weights[p] times each.
func (fl *factorLayer) layers(weights []float64) map[string]float64 {
	var total, ns, nnzL, flops, bytes float64
	for p, w := range weights {
		total += w
		ns += w * fl.solveNS[p]
		flops += w * 4 * fl.nnzL[p] // a forward and a backward sweep, a multiply-add per entry
		bytes += w * 2 * fl.factorBytes[p]
		nnzL += fl.nnzL[p]
	}
	return map[string]float64{
		"core.build_subdomains_s": fl.buildSubdomains.Seconds(),
		"factor.nnz_l":            nnzL,
		"factor.solve_flops":      flops,
		"factor.solve_bytes":      bytes,
		"core.subdomain_solve_ns": ns / total,
		"core.local_solve_s":      ns / 1e9,
	}
}

// directBaseline times a whole-system supernodal factorisation plus one
// solve on a single thread, the plain baseline DTM is compared against, and
// checks its answer with the same gate.
func directBaseline(tr *tracer, sys sparse.System, ref sparse.Vec) (time.Duration, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var times []float64
	for i := 0; i < 3; i++ {
		id := tr.begin("factor.New+SolveTo", 0)
		f, err := factor.New(factor.SparseSupernodal, sys.A)
		if err != nil {
			return 0, err
		}
		x := sparse.NewVec(sys.Dim())
		f.SolveTo(x, sys.B)
		tr.end(id)
		if err := checkAgreement(x, ref); err != nil {
			return 0, fmt.Errorf("direct baseline: %w", err)
		}
		times = append(times, tr.duration(id).Seconds())
	}
	return time.Duration(median(times) * float64(time.Second)), nil
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
