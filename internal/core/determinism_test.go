package core

import (
	"context"
	"testing"

	"repro/internal/dense"
	"repro/internal/factor"
	"repro/internal/netsim"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// TestSolveDTMDeterminism pins the zero-allocation event core to the DES
// contract the paper's figures rely on, for every local-factorisation
// backend: two runs with identical inputs must produce identical
// solve/message counts, identical solutions bit for bit, and identical
// convergence traces.
func TestSolveDTMDeterminism(t *testing.T) {
	sys := sparse.RandomGridSPD(13, 13, 7)
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	topo := topology.Mesh4x4Paper()

	run := func(backend string) *Result {
		prob, err := GridProblem(sys, 13, 13, 4, 4, topo)
		if err != nil {
			t.Fatalf("GridProblem: %v", err)
		}
		res, err := Solve(context.Background(), prob, Config{
			CommonOptions: CommonOptions{Exact: exact, StopOnError: 1e-6, RecordTrace: true, LocalSolver: backend},
			MaxTime:       4000,
		})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return res
	}

	compare := func(t *testing.T, a, b *Result) {
		t.Helper()
		if a.Solves != b.Solves {
			t.Errorf("Solves differ: %d vs %d", a.Solves, b.Solves)
		}
		if a.Messages != b.Messages {
			t.Errorf("Messages differ: %d vs %d", a.Messages, b.Messages)
		}
		if a.FinalTime != b.FinalTime {
			t.Errorf("FinalTime differs: %g vs %g", a.FinalTime, b.FinalTime)
		}
		if a.TwinGap != b.TwinGap {
			t.Errorf("TwinGap differs: %g vs %g", a.TwinGap, b.TwinGap)
		}
		if len(a.X) != len(b.X) {
			t.Fatalf("X lengths differ: %d vs %d", len(a.X), len(b.X))
		}
		for i := range a.X {
			if a.X[i] != b.X[i] {
				t.Fatalf("X[%d] differs: %g vs %g", i, a.X[i], b.X[i])
			}
		}
		if len(a.Trace) != len(b.Trace) {
			t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
		}
		for i := range a.Trace {
			if a.Trace[i] != b.Trace[i] {
				t.Fatalf("trace point %d differs: %+v vs %+v", i, a.Trace[i], b.Trace[i])
			}
		}
		if !a.Converged {
			t.Errorf("run did not converge: %+v", a)
		}
	}

	for _, backend := range []string{"", factor.DenseCholesky, factor.SparseCholesky, factor.SparseLDLT, factor.SparseSupernodal, factor.Auto} {
		name := backend
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			compare(t, run(backend), run(backend))
		})
	}

	// The same contract with the fill-reducing ordering forced to nested
	// dissection, so the ND code path (bushy etrees, parallel subtree
	// factorisation) is under the byte-identical DES guarantee too.
	t.Run("supernodal-nd-ordering", func(t *testing.T) {
		sel := factor.SparseSupernodal + ",order=nd"
		compare(t, run(sel), run(sel))
	})
}

// TestIncrementalTwinGapMatchesFullScan verifies, after a DTM run, that the
// incrementally maintained segment tree's root equals a from-scratch scan over
// every link — the invariant that lets the stop condition check only
// O(incident) links per solve.
func TestIncrementalTwinGapMatchesFullScan(t *testing.T) {
	sys := sparse.RandomGridSPD(13, 13, 99)
	topo := topology.Mesh4x4Paper()
	prob, err := GridProblem(sys, 13, 13, 4, 4, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	cfg := Config{CommonOptions: CommonOptions{Tol: 1e-7}, MaxTime: 800}
	cfg.normalize()
	subs, _, err := prob.BuildSubdomains(cfg.Impedance, cfg.LocalSolver)
	if err != nil {
		t.Fatalf("BuildSubdomains: %v", err)
	}
	eng := newEngine(prob, &cfg, subs)
	compute := cfg.computeTimeFn(prob)
	nodes := make([]netsim.Node[wavePacket], len(subs))
	for i, s := range subs {
		nodes[i] = newDTMNode(eng, s, compute)
	}
	sim := netsim.New(nodes, func(from, to int) float64 { return prob.Delay(from, to) })
	sim.SetStopCondition(func(now float64) bool { return eng.shouldStop(now) })
	sim.Run(cfg.MaxTime)

	full := 0.0
	for _, l := range prob.Partition.Links {
		va := subs[l.PartA].PortPotential(l.PortA)
		vb := subs[l.PartB].PortPotential(l.PortB)
		if d := va - vb; d > full {
			full = d
		} else if -d > full {
			full = -d
		}
	}
	if got := eng.twinGap(); got != full {
		t.Errorf("incremental twin gap %g != full scan %g", got, full)
	}
}
