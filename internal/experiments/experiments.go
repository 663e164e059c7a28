// Package experiments regenerates every table and figure of the paper's
// evaluation plus the comparisons and ablations listed in DESIGN.md. Each
// experiment is a function returning a structured result with a Render method
// that prints the same rows or series the paper reports; the cmd/dtmbench CLI
// and the root bench harness are thin wrappers around this package.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/dense"
	"repro/internal/iterative"
	"repro/internal/sparse"
)

// Reference computes the reference ("exact") solution of a system: a dense LU
// solve for small systems and a tightly converged conjugate-gradient solve for
// larger ones, which is accurate to ~1e-12 on the well-conditioned SPD systems
// used here and much cheaper than dense factorisation at n = 4225.
func Reference(sys sparse.System) (sparse.Vec, error) {
	if sys.Dim() <= 600 {
		return dense.SolveExact(sys.A, sys.B)
	}
	x, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 20 * sys.Dim(), Tol: 1e-13})
	if err != nil {
		return nil, err
	}
	if !st.Converged && st.Residual > 1e-10 {
		return nil, fmt.Errorf("experiments: reference CG did not converge (residual %g)", st.Residual)
	}
	return x, nil
}

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render(w io.Writer) error
}

// Runner executes one named experiment and renders it to w. quick selects a
// reduced problem size suitable for unit tests and -short benchmarks.
type Runner func(w io.Writer, quick bool) error

// Experiment is one registered experiment.
type Experiment struct {
	// Name is the name cmd/dtmbench -exp accepts.
	Name string
	// Run executes the experiment.
	Run Runner
	// Gated marks the hot-path experiments whose cost is tracked over time:
	// cmd/dtmbench -benchjson measures exactly these (make bench and CI's
	// regression gate run it), in registry order.
	Gated bool
}

// experimentList is the registry, in its stable order.
var experimentList = []Experiment{
	{Name: "fig8", Run: func(w io.Writer, quick bool) error {
		r, err := Fig8(DefaultFig8Params())
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "fig9", Run: func(w io.Writer, quick bool) error {
		p := DefaultFig9Params()
		if quick {
			p.Impedances = p.Impedances[:5]
		}
		r, err := Fig9(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "fig11", Run: func(w io.Writer, quick bool) error {
		r := Fig11()
		return r.Render(w)
	}},
	{Name: "fig12", Gated: true, Run: func(w io.Writer, quick bool) error {
		p := DefaultFig12Params()
		if quick {
			p = QuickFig12Params()
		}
		r, err := Fig12(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "fig13", Run: func(w io.Writer, quick bool) error {
		r := Fig13()
		return r.Render(w)
	}},
	{Name: "fig14", Gated: true, Run: func(w io.Writer, quick bool) error {
		p := DefaultFig14Params()
		if quick {
			p = QuickFig14Params()
		}
		r, err := Fig14(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "compare-vtm", Run: func(w io.Writer, quick bool) error {
		p := DefaultCompareParams()
		if quick {
			p = QuickCompareParams()
		}
		r, err := CompareDTMvsVTM(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "compare-async-jacobi", Gated: true, Run: func(w io.Writer, quick bool) error {
		p := DefaultCompareParams()
		if quick {
			p = QuickCompareParams()
		}
		r, err := CompareAsyncJacobi(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "ablation-impedance", Run: func(w io.Writer, quick bool) error {
		p := DefaultCompareParams()
		if quick {
			p = QuickCompareParams()
		}
		r, err := AblationImpedance(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "ablation-delays", Run: func(w io.Writer, quick bool) error {
		p := DefaultCompareParams()
		if quick {
			p = QuickCompareParams()
		}
		r, err := AblationDelays(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "ablation-mixed", Run: func(w io.Writer, quick bool) error {
		p := DefaultCompareParams()
		if quick {
			p = QuickCompareParams()
		}
		r, err := AblationMixedSync(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "scale-sparse", Gated: true, Run: func(w io.Writer, quick bool) error {
		p := DefaultScaleSparseParams()
		if quick {
			p = QuickScaleSparseParams()
		}
		r, err := ScaleSparse(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "fault-sweep", Gated: true, Run: func(w io.Writer, quick bool) error {
		p := DefaultFaultSweepParams()
		if quick {
			p = QuickFaultSweepParams()
		}
		r, err := FaultSweep(p)
		if err != nil {
			return err
		}
		if err := r.Render(w); err != nil {
			return err
		}
		if quick {
			return nil
		}
		// The full run adds the large-grid leg.
		big, err := FaultSweep(FullFaultSweepParams())
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		return big.Render(w)
	}},
	{Name: "solve-throughput", Gated: true, Run: func(w io.Writer, quick bool) error {
		p := DefaultSolveThroughputParams()
		if quick {
			p = QuickSolveThroughputParams()
		}
		r, err := SolveThroughput(p)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{Name: "compare-distributed", Gated: true, Run: func(w io.Writer, quick bool) error {
		p := DefaultCompareDistributedParams()
		if quick {
			p = QuickCompareDistributedParams()
		}
		r, err := CompareDistributed(p)
		if err != nil {
			return err
		}
		if err := r.Render(w); err != nil {
			return err
		}
		if !r.Agrees() {
			return fmt.Errorf("experiments: E9 disagreement (see table)")
		}
		return nil
	}},
	{Name: "failover-sweep", Gated: true, Run: func(w io.Writer, quick bool) error {
		p := DefaultFailoverSweepParams()
		if quick {
			p = QuickFailoverSweepParams()
		}
		r, err := FailoverSweep(p)
		if err != nil {
			return err
		}
		if err := r.Render(w); err != nil {
			return err
		}
		if !r.Agrees() {
			return fmt.Errorf("experiments: E10 disagreement (see table)")
		}
		return nil
	}},
	{Name: "spanner-fabric", Gated: true, Run: func(w io.Writer, quick bool) error {
		p := DefaultSpannerFabricParams()
		if quick {
			p = QuickSpannerFabricParams()
		}
		r, err := SpannerFabric(p)
		if err != nil {
			return err
		}
		if err := r.Render(w); err != nil {
			return err
		}
		if !r.Agrees() {
			return fmt.Errorf("experiments: E11 disagreement (see table)")
		}
		return nil
	}},
}

// Registry maps experiment names (as accepted by cmd/dtmbench -exp) to their
// runners.
func Registry() map[string]Runner {
	reg := make(map[string]Runner, len(experimentList))
	for _, e := range experimentList {
		reg[e.Name] = e.Run
	}
	return reg
}

// Names returns the registered experiment names in a stable order.
func Names() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.Name
	}
	return names
}

// GatedNames returns the names of the gated experiments in registry order.
func GatedNames() []string {
	var names []string
	for _, e := range experimentList {
		if e.Gated {
			names = append(names, e.Name)
		}
	}
	return names
}
