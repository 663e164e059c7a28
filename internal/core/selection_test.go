package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// TestSolveSelectionIsolation pins the per-call factor selection: the
// ordering one solve selects must not leak into the next solve, and solves
// with different orderings running at once must each reproduce their own
// sequential bytes.
func TestSolveSelectionIsolation(t *testing.T) {
	sys := sparse.RandomGridSPD(21, 21, 5)
	solve := func(sel string) (*Result, error) {
		prob, err := GridProblem(sys, 21, 21, 2, 2, topology.Mesh4x4Paper())
		if err != nil {
			return nil, err
		}
		return Solve(context.Background(), prob, Config{
			CommonOptions: CommonOptions{Tol: 1e-6, LocalSolver: sel},
			MaxTime:       1e6,
		})
	}
	same := func(a, b *Result) bool {
		if a.Solves != b.Solves || a.Messages != b.Messages || len(a.X) != len(b.X) {
			return false
		}
		for i := range a.X {
			if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
				return false
			}
		}
		return true
	}

	sels := []string{
		factor.SparseSupernodal,
		factor.SparseSupernodal + ",order=nd",
		factor.SparseSupernodal + ",order=amd",
	}
	seq := make(map[string]*Result)
	for _, sel := range append(sels, sels[0]) {
		res, err := solve(sel)
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		if prev, ok := seq[sel]; ok && !same(prev, res) {
			t.Fatalf("%s solved differently after the %s and %s solves: solves %d→%d, messages %d→%d",
				sel, sels[1], sels[2], prev.Solves, res.Solves, prev.Messages, res.Messages)
		}
		seq[sel] = res
	}
	if same(seq[sels[0]], seq[sels[1]]) {
		t.Fatal("order=nd reproduced the auto ordering's bytes; the test cannot see a leak")
	}

	got := make([]*Result, len(sels))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = solve(sels[i])
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		sel := sels[i]
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", sel, errs[i])
		}
		if !same(seq[sel], res) {
			t.Errorf("concurrent %s differs from its sequential solve", sel)
		}
	}
}
