package factor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// snTestSystems are the workloads the supernodal backend must agree with the
// scalar backends on: SPD grids (regular and randomised), an irregular SPD
// pattern, and symmetric quasi-definite saddle systems.
func snTestSystems() map[string]sparse.System {
	return map[string]sparse.System{
		"poisson-24x24":   sparse.Poisson2D(24, 24, 0.05),
		"randgrid-17x17":  sparse.RandomGridSPD(17, 17, 4),
		"random-spd-300":  sparse.RandomSPD(300, 0.03, 11),
		"tridiag-200":     sparse.Tridiagonal(200, 2.1, -1),
		"saddle-16x16":    sparse.SaddlePoisson2D(16, 16, 1e-2),
		"saddle-24x24":    sparse.SaddlePoisson2D(24, 24, 1e-2),
		"poisson3d-7x7x7": sparse.Poisson3D(7, 7, 7, 0.05),
	}
}

// TestSupernodalAgreesWithScalarBackends is the cross-backend property test
// of the ISSUE: on SPD and quasi-definite systems, under every ordering, the
// supernodal factorisation must agree with the scalar sparse backends and the
// dense reference to 1e-10 relative.
func TestSupernodalAgreesWithScalarBackends(t *testing.T) {
	for name, sys := range snTestSystems() {
		spd := hasPosDiag(sys.A)
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND, OrderAuto} {
			t.Run(fmt.Sprintf("%s/%s", name, ord), func(t *testing.T) {
				mode := ModeCholesky
				var ref sparse.Vec
				if spd {
					scalar, err := NewCholesky(sys.A, ord)
					if err != nil {
						t.Fatalf("scalar Cholesky: %v", err)
					}
					ref = scalar.Solve(sys.B)
				} else {
					mode = ModeLDLT
					scalar, err := NewLDLT(sys.A, ord)
					if err != nil {
						t.Fatalf("scalar LDLT: %v", err)
					}
					ref = scalar.Solve(sys.B)
				}
				sn, err := NewSupernodal(sys.A, ord, mode)
				if err != nil {
					t.Fatalf("supernodal: %v", err)
				}
				// Several right-hand sides per factor (factor-once/solve-many),
				// all checked against residuals and the scalar solution.
				for trial := int64(0); trial < 3; trial++ {
					b := sys.B
					if trial > 0 {
						b = sparse.RandomVec(sys.Dim(), 31*trial)
					}
					x := sn.Solve(b)
					if r := sys.A.Residual(x, b).Norm2() / b.Norm2(); r > 1e-10 {
						t.Errorf("trial %d: relative residual %g", trial, r)
					}
					if trial == 0 {
						scale := ref.Norm2()
						if scale == 0 {
							scale = 1
						}
						if d := x.Sub(ref).Norm2() / scale; d > 1e-10 {
							t.Errorf("supernodal deviates from scalar by %g (rel)", d)
						}
					}
				}
			})
		}
	}
}

// TestSupernodalLDLTInertiaMatchesScalar checks the inertia (a discrete
// invariant, so it must match exactly) on quasi-definite systems.
func TestSupernodalLDLTInertiaMatchesScalar(t *testing.T) {
	sys := sparse.SaddlePoisson2D(20, 20, 1e-2)
	scalar, err := NewLDLT(sys.A, OrderAMD)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NewSupernodal(sys.A, OrderAMD, ModeLDLT)
	if err != nil {
		t.Fatal(err)
	}
	sp, sneg, szero := scalar.Inertia()
	p, neg, zero := sn.Inertia()
	if p != sp || neg != sneg || zero != szero {
		t.Errorf("supernodal inertia (%d+,%d-,%d0) differs from scalar (%d+,%d-,%d0)", p, neg, zero, sp, sneg, szero)
	}
	if cp, cneg, _ := func() (int, int, int) {
		c, err := NewSupernodal(sys.A, OrderAMD, ModeCholesky)
		if err == nil {
			return c.Inertia()
		}
		return -1, -1, -1
	}(); cp != -1 {
		t.Errorf("Cholesky mode factorised an indefinite system (inertia %d+,%d-)", cp, cneg)
	}
}

// snFactorBytes serialises everything numeric about a factorisation, so runs
// can be compared byte for byte.
func snFactorBytes(t *testing.T, s *Supernodal, b sparse.Vec) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range s.panel {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if s.d != nil {
		for _, v := range s.d {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	x := s.Solve(b)
	for _, v := range x {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSupernodalDeterministicAcrossGOMAXPROCS is the determinism guarantee of
// the ISSUE: factors and solves must be byte-identical whether the scheduler
// runs subtree tasks on one worker or four. AMD- and ND-ordered systems have
// bushy elimination trees, so the parallel path genuinely engages (asserted
// via Parallelism) when the work is large enough — the 128² ND grid is the
// acceptance workload of the nested-dissection PR.
func TestSupernodalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	systems := map[string]struct {
		sys  sparse.System
		ord  Ordering
		mode SupernodalMode
	}{
		"poisson-96x96-amd":  {sparse.Poisson2D(96, 96, 0.05), OrderAMD, ModeCholesky},
		"saddle-64x64-amd":   {sparse.SaddlePoisson2D(64, 64, 1e-2), OrderAMD, ModeLDLT},
		"poisson-128x128-nd": {sparse.Poisson2D(128, 128, 0.05), OrderND, ModeCholesky},
		"saddle-64x64-nd":    {sparse.SaddlePoisson2D(64, 64, 1e-2), OrderND, ModeLDLT},
	}
	saved := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(saved)
	for name, tc := range systems {
		t.Run(name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			s1, err := NewSupernodal(tc.sys.A, tc.ord, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			bytes1 := snFactorBytes(t, s1, tc.sys.B)
			if tasks, workers := s1.Parallelism(); workers != 1 {
				t.Errorf("GOMAXPROCS=1 ran on %d workers (%d tasks)", workers, tasks)
			}

			runtime.GOMAXPROCS(4)
			s4, err := NewSupernodal(tc.sys.A, tc.ord, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			bytes4 := snFactorBytes(t, s4, tc.sys.B)
			if !bytes.Equal(bytes1, bytes4) {
				t.Fatal("factor/solve bytes differ between GOMAXPROCS=1 and GOMAXPROCS=4")
			}
			if tasks, workers := s4.Parallelism(); workers < 2 {
				t.Errorf("GOMAXPROCS=4 did not engage the worker pool (tasks=%d workers=%d)", tasks, workers)
			} else {
				t.Logf("parallel run: %d subtree tasks on %d workers, byte-identical to sequential", tasks, workers)
			}
		})
	}
}

// TestSupernodalRunToRunDeterminism pins plain run-over-run byte equality at
// whatever GOMAXPROCS the test harness uses.
func TestSupernodalRunToRunDeterminism(t *testing.T) {
	sys := sparse.RandomGridSPD(40, 40, 9)
	s1, err := NewSupernodal(sys.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSupernodal(sys.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snFactorBytes(t, s1, sys.B), snFactorBytes(t, s2, sys.B)) {
		t.Fatal("two factorisations of the same matrix differ")
	}
}

// TestSupernodePartitionProperties checks the structural invariants of the
// supernode partition the ISSUE names: supernodes cover the columns
// contiguously, every supernode's row structure starts with its own columns
// and contains exactly the (sorted, below-supernode) union of its member
// columns' patterns, the stored trapezoids account for every true factor
// entry, and the amalgamation zero-fill budget is respected per supernode.
func TestSupernodePartitionProperties(t *testing.T) {
	for name, sys := range snTestSystems() {
		t.Run(name, func(t *testing.T) {
			mode := ModeCholesky
			if !hasPosDiag(sys.A) {
				mode = ModeLDLT
			}
			s, err := NewSupernodal(sys.A, OrderAuto, mode)
			if err != nil {
				t.Fatal(err)
			}
			n := s.n
			// Contiguous cover of the columns.
			if s.sfirst[0] != 0 || int(s.sfirst[s.ns]) != n {
				t.Fatalf("partition does not span the columns: %v", s.sfirst)
			}
			// Recompute the scalar column counts on the same permuted matrix.
			c := sys.A
			if s.perm != nil {
				c = sys.A.PermuteSym(s.perm)
			}
			parent := etree(c)
			count := snColCounts(c, parent)
			// Cross-check the GNP counts against the ereach sweep the scalar
			// backends use.
			mark := make([]int, n)
			stack := make([]int, n)
			pattern := make([]int, n)
			for i := range mark {
				mark[i] = -1
			}
			sweep := make([]int, n)
			for k := 0; k < n; k++ {
				top := ereach(c, k, parent, mark, stack, pattern)
				sweep[k]++
				for _, j := range pattern[top:] {
					sweep[j]++
				}
			}
			for j := 0; j < n; j++ {
				if count[j] != sweep[j] {
					t.Fatalf("GNP count[%d]=%d, ereach sweep says %d", j, count[j], sweep[j])
				}
			}
			totalStored := 0
			for sn := 0; sn < s.ns; sn++ {
				f, l := int(s.sfirst[sn]), int(s.sfirst[sn+1])-1
				width := l - f + 1
				if width <= 0 || width > snMaxWidth {
					t.Fatalf("supernode %d has width %d", sn, width)
				}
				rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
				ld := len(rows)
				// Row structure starts with the supernode's own columns …
				for i := 0; i < width; i++ {
					if int(rows[i]) != f+i {
						t.Fatalf("supernode %d row %d is %d, want own column %d", sn, i, rows[i], f+i)
					}
				}
				// … and continues sorted strictly beyond the last column.
				for i := width; i < ld; i++ {
					if int(rows[i]) <= l || (i > width && rows[i] <= rows[i-1]) {
						t.Fatalf("supernode %d has unsorted/in-range below-row %d at %d", sn, rows[i], i)
					}
				}
				// Column-count consistency: the trapezoid must hold every true
				// entry of each member column (count ≤ available rows), with
				// the first member column tight when no amalgamation happened.
				entries := 0
				truth := 0
				for jj := 0; jj < width; jj++ {
					avail := ld - jj
					if count[f+jj] > avail {
						t.Fatalf("supernode %d col %d: count %d exceeds trapezoid rows %d", sn, f+jj, count[f+jj], avail)
					}
					entries += avail
					truth += count[f+jj]
				}
				totalStored += entries
				// Amalgamation budget: explicit zeros within the loosest
				// fraction snRelaxOK ever allows.
				if zeros := entries - truth; float64(zeros) > snRelaxFracMax*float64(entries) {
					t.Fatalf("supernode %d: %d explicit zeros in %d entries breaks the amalgamation budget", sn, zeros, entries)
				}
			}
			if totalStored != s.NNZL() {
				t.Errorf("NNZL() = %d, trapezoids sum to %d", s.NNZL(), totalStored)
			}
		})
	}
}

// TestSupernodalBackendRegistered covers the registry entry and its internal
// Cholesky→LDLᵀ chain: SPD input factorises in Cholesky mode, quasi-definite
// input lands in LDLᵀ mode under the same name.
func TestSupernodalBackendRegistered(t *testing.T) {
	if !Known(SparseSupernodal) {
		t.Fatal("sparse-supernodal is not registered")
	}
	spd := sparse.Poisson2D(16, 16, 0.05)
	s, err := New(SparseSupernodal, spd.A)
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != SparseSupernodal {
		t.Errorf("Backend() = %q", s.Backend())
	}
	if s.(*Supernodal).Mode() != ModeCholesky {
		t.Errorf("SPD input factorised in %v mode", s.(*Supernodal).Mode())
	}
	saddle := sparse.SaddlePoisson2D(12, 12, 1e-2)
	s, err = New(SparseSupernodal, saddle.A)
	if err != nil {
		t.Fatal(err)
	}
	if s.(*Supernodal).Mode() != ModeLDLT {
		t.Errorf("quasi-definite input factorised in %v mode", s.(*Supernodal).Mode())
	}
	x := Solve(s, saddle.B)
	if r := saddle.A.Residual(x, saddle.B).Norm2() / saddle.B.Norm2(); r > 1e-10 {
		t.Errorf("registry solve has relative residual %g", r)
	}
}

// TestAutoPicksSupernodalForLargeBlocks pins the auto policy's size
// threshold: a large sparse SPD block routes to the supernodal backend, a
// large quasi-definite one lands in its LDLᵀ mode, and a singular block still
// falls through to dense LU.
func TestAutoPicksSupernodalForLargeBlocks(t *testing.T) {
	big := sparse.Poisson2D(32, 32, 0.05) // n=1024 ≥ autoSupernodalMinDim
	s, err := New(Auto, big.A)
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != SparseSupernodal {
		t.Errorf("auto picked %q for n=%d, want %q", s.Backend(), big.Dim(), SparseSupernodal)
	}
	saddle := sparse.SaddlePoisson2D(32, 32, 1e-2) // n=1056, indefinite
	s, err = New(Auto, saddle.A)
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != SparseSupernodal || s.(*Supernodal).Mode() != ModeLDLT {
		t.Errorf("auto picked %q for a large quasi-definite block", s.Backend())
	}
	// A structurally singular large sparse block: supernodal LDLᵀ fails, dense
	// LU (feasible here) must still catch it.
	n := 2 * autoSupernodalMinDim
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n/2; i++ {
		coo.AddSym(i, n-1-i, 1)
	}
	s, err = New(Auto, coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != DenseLU {
		t.Errorf("auto picked %q for the anti-diagonal, want %q", s.Backend(), DenseLU)
	}
}

// TestSupernodalErrors covers the failure modes: non-square input, bad
// pivots in both modes (with the right sentinels), and the singleton and
// aliasing edge cases.
func TestSupernodalErrors(t *testing.T) {
	if _, err := NewSupernodal(sparse.NewCOO(2, 3).ToCSR(), OrderNatural, ModeCholesky); err == nil {
		t.Error("non-square input did not fail")
	}
	indef := sparse.NewCSRFromDense([][]float64{{1, 2}, {2, 1}}, 0)
	if _, err := NewSupernodal(indef, OrderNatural, ModeCholesky); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("indefinite Cholesky: %v, want ErrNotPositiveDefinite", err)
	}
	sing := sparse.NewCSRFromDense([][]float64{{0, 1}, {1, 0}}, 0)
	if _, err := NewSupernodal(sing, OrderNatural, ModeLDLT); !errors.Is(err, ErrSingular) {
		t.Errorf("zero-pivot LDLT: %v, want ErrSingular", err)
	}
	one, err := NewSupernodal(sparse.NewCSRFromDense([][]float64{{4}}, 0), OrderNatural, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	if x := one.Solve(sparse.Vec{8}); x[0] != 2 {
		t.Errorf("1x1 solve got %g, want 2", x[0])
	}
	sys := sparse.Poisson2D(9, 9, 0.05)
	s, err := NewSupernodal(sys.A, OrderRCM, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Solve(sys.B)
	x := sys.B.Clone()
	s.SolveTo(x, x) // aliasing
	if x.MaxAbsDiff(want) != 0 {
		t.Error("aliased SolveTo differs from Solve")
	}
}

// TestSupernodalParallelErrorDeterministic forces a bad pivot into a system
// large enough to schedule subtree tasks and checks the reported error is the
// same pivot the sequential pass reports, at every GOMAXPROCS.
func TestSupernodalParallelErrorDeterministic(t *testing.T) {
	// A large AMD-friendly SPD system made indefinite at one entry.
	sys := sparse.SaddlePoisson2D(64, 64, 1e-2)
	saved := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(saved)
	var msgs []string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := NewSupernodal(sys.A, OrderAMD, ModeCholesky)
		if !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("GOMAXPROCS=%d: %v, want ErrNotPositiveDefinite", procs, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("pivot error differs across GOMAXPROCS: %q vs %q", msgs[0], msgs[1])
	}
}

// TestPostorder checks the postorder helper on a small forest.
func TestPostorder(t *testing.T) {
	//     5        6 (root)     parents: 5 for {1,3}, 6 for {0,5}, roots 6, 2? keep a forest:
	parent := []int{6, 5, -1, 5, 2, 6, -1}
	post := postorder(parent)
	if err := Perm(post).Check(); err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(parent))
	for i, v := range post {
		pos[v] = i
	}
	for v, p := range parent {
		if p != -1 && pos[v] > pos[p] {
			t.Errorf("vertex %d appears after its parent %d", v, p)
		}
	}
}

// snSolveSeqRef is the one-column supernodal sweep, kept as the reference the
// register-blocked SolveSeqTo must reproduce bit for bit: per supernode, the
// forward step applies one solved column at a time to the trailing
// diagonal-block rows and the gathered rectangular contribution (a zero
// column value is skipped), and the backward step runs one dot product per
// column over the gathered ancestor rows.
func snSolveSeqRef(s *Supernodal, x, b sparse.Vec) {
	n := s.n
	w := sparse.NewVec(n)
	g := make([]float64, s.maxLd)
	if s.perm != nil {
		for i, old := range s.perm {
			w[i] = b[old]
		}
	} else {
		copy(w, b)
	}
	unit := s.mode == ModeLDLT
	for sn := 0; sn < s.ns; sn++ {
		f := int(s.sfirst[sn])
		width := int(s.sfirst[sn+1]) - f
		ld := int(s.rx[sn+1] - s.rx[sn])
		panel := s.panel[s.px[sn]:s.px[sn+1]]
		rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
		g := g[:ld-width]
		for i := range g {
			g[i] = 0
		}
		for jj := 0; jj < width; jj++ {
			col := panel[jj*ld:]
			v := w[f+jj]
			if !unit {
				v /= col[jj]
				w[f+jj] = v
			}
			if v == 0 {
				continue
			}
			for i := jj + 1; i < width; i++ {
				w[f+i] -= col[i] * v
			}
			for i := width; i < ld; i++ {
				g[i-width] += col[i] * v
			}
		}
		for i := width; i < ld; i++ {
			w[rows[i]] -= g[i-width]
		}
	}
	if unit {
		for j := 0; j < n; j++ {
			w[j] /= s.d[j]
		}
	}
	for sn := s.ns - 1; sn >= 0; sn-- {
		f := int(s.sfirst[sn])
		width := int(s.sfirst[sn+1]) - f
		ld := int(s.rx[sn+1] - s.rx[sn])
		panel := s.panel[s.px[sn]:s.px[sn+1]]
		rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
		if m := ld - width; m > 0 {
			gb := g[:m]
			for i := 0; i < m; i++ {
				gb[i] = w[rows[width+i]]
			}
			for jj := 0; jj < width; jj++ {
				col := panel[jj*ld+width:]
				sum := 0.0
				for i := 0; i < m; i++ {
					sum += col[i] * gb[i]
				}
				w[f+jj] -= sum
			}
		}
		for jj := width - 1; jj >= 0; jj-- {
			col := panel[jj*ld:]
			sum := w[f+jj]
			for i := jj + 1; i < width; i++ {
				sum -= col[i] * w[f+i]
			}
			if !unit {
				sum /= col[jj]
			}
			w[f+jj] = sum
		}
	}
	if s.perm != nil {
		for i, old := range s.perm {
			x[old] = w[i]
		}
	} else {
		copy(x, w)
	}
}

// snBlockDiagSPD returns the block-diagonal SPD matrix of dense blocks of the
// given sizes (diagonal k+1, off-diagonal −1 in a k×k block). In natural
// order every block is one root supernode of width k with no rectangular
// part.
func snBlockDiagSPD(sizes ...int) *sparse.CSR {
	n := 0
	for _, k := range sizes {
		n += k
	}
	coo := sparse.NewCOO(n, n)
	off := 0
	for _, k := range sizes {
		for i := 0; i < k; i++ {
			coo.Add(off+i, off+i, float64(k+1))
			for j := 0; j < i; j++ {
				coo.AddSym(off+i, off+j, -1)
			}
		}
		off += k
	}
	return coo.ToCSR()
}

// snDiffRHS returns right-hand sides that steer the sweep through both of its
// paths: dense random values (the four-column passes), scattered exact zeros
// and −0s, whole zero blocks and a lone unit entry (zero column values, so
// the one-column fallback), all-zero and all-−0 vectors, and an infinite
// entry (0·Inf must stay skipped exactly where the reference skips it).
func snDiffRHS(n int, b sparse.Vec) map[string]sparse.Vec {
	negZero := math.Copysign(0, -1)
	out := map[string]sparse.Vec{
		"system": b,
		"random": sparse.RandomVec(n, 7),
	}
	scattered := sparse.RandomVec(n, 8)
	for i := range scattered {
		switch i % 7 {
		case 1, 4:
			scattered[i] = 0
		case 5:
			scattered[i] = negZero
		}
	}
	out["scattered-zeros"] = scattered
	blocks := sparse.RandomVec(n, 9)
	for i := range blocks {
		switch {
		case i < n/2:
			blocks[i] = 0
		case i < 5*n/8:
			blocks[i] = negZero
		}
	}
	out["zero-blocks"] = blocks
	unitVec := sparse.NewVec(n)
	unitVec[n/3] = 1
	out["unit"] = unitVec
	out["zero"] = sparse.NewVec(n)
	negZeros := sparse.NewVec(n)
	for i := range negZeros {
		negZeros[i] = negZero
	}
	out["neg-zero"] = negZeros
	inf := sparse.NewVec(n)
	inf[n-1-n/4] = math.Inf(1)
	inf[n/5] = 2
	out["inf"] = inf
	return out
}

// TestSupernodalSolveMatchesReference is the differential test of the
// register-blocked sweep: on every system, ordering and right-hand side,
// SolveSeqTo, SolveTo and the level schedule (which shares the backward
// step) must produce exactly the one-column reference's bits. The systems
// together cover supernode widths 1–9 both with a rectangular part and as
// roots without one.
func TestSupernodalSolveMatchesReference(t *testing.T) {
	type diffCase struct {
		name  string
		a     *sparse.CSR
		b     sparse.Vec
		order Ordering
		mode  SupernodalMode
	}
	var cases []diffCase
	for _, g := range []struct{ r, c int }{{33, 33}, {64, 40}, {128, 128}} {
		sys := sparse.Poisson2D(g.r, g.c, 0.05)
		for _, o := range []Ordering{OrderND, OrderAMD} {
			cases = append(cases, diffCase{fmt.Sprintf("poisson-%dx%d/%s", g.r, g.c, o), sys.A, sys.B, o, ModeCholesky})
		}
	}
	saddle := sparse.SaddlePoisson2D(24, 24, 1e-2)
	for _, o := range []Ordering{OrderND, OrderAMD} {
		cases = append(cases, diffCase{"saddle-24x24/" + o.String(), saddle.A, saddle.B, o, ModeLDLT})
	}
	blocks := snBlockDiagSPD(1, 2, 3, 4, 5, 6, 7, 8, 9)
	for _, mode := range []SupernodalMode{ModeCholesky, ModeLDLT} {
		cases = append(cases, diffCase{"blockdiag-1to9/" + mode.String(), blocks, sparse.RandomVec(blocks.Rows(), 3), OrderNatural, mode})
	}

	var withRect, rootOnly [10]bool
	for _, tc := range cases {
		s, err := NewSupernodal(tc.a, tc.order, tc.mode)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for sn := 0; sn < s.ns; sn++ {
			if w := int(s.sfirst[sn+1] - s.sfirst[sn]); w < len(withRect) {
				if int(s.rx[sn+1]-s.rx[sn]) > w {
					withRect[w] = true
				} else {
					rootOnly[w] = true
				}
			}
		}
		n := s.Dim()
		want, got := sparse.NewVec(n), sparse.NewVec(n)
		for rname, b := range snDiffRHS(n, tc.b) {
			snSolveSeqRef(s, want, b)
			for _, solve := range []struct {
				name string
				run  func(x, b sparse.Vec)
			}{{"SolveSeqTo", s.SolveSeqTo}, {"SolveTo", s.SolveTo}, {"SolveLevelTo", s.SolveLevelTo}} {
				for i := range got {
					got[i] = math.NaN()
				}
				solve.run(got, b)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%s: %s x[%d] = %v (%#x), reference %v (%#x)", tc.name, rname, solve.name,
							i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
	for w := 1; w < len(withRect); w++ {
		if !withRect[w] || !rootOnly[w] {
			t.Errorf("width %d not covered (with rectangular part %v, root without one %v)", w, withRect[w], rootOnly[w])
		}
	}
}

// snRootFactor builds a Cholesky-mode factor by hand: one root supernode
// whose panel is the given dense lower-triangular L (natural order, no
// rectangular part), so a test can place exact zeros where no
// factorisation of a stored matrix would leave them.
func snRootFactor(l [][]float64) *Supernodal {
	n := len(l)
	s := &Supernodal{
		n: n, ns: 1, maxLd: n,
		sfirst: []int32{0, int32(n)},
		rx:     []int32{0, int32(n)},
		rowind: make([]int32, n),
		px:     []int{0, n * n},
		panel:  make([]float64, n*n),
	}
	for i := range l {
		s.rowind[i] = int32(i)
		for j := 0; j <= i; j++ {
			s.panel[j*n+i] = l[i][j]
		}
	}
	s.scratch.New = func() any {
		return &snSolveScratch{w: sparse.NewVec(n), g: make([]float64, n)}
	}
	return s
}

// TestSupernodalSolveZeroSkipExact pins the zero skip of every column of a
// four-column group. Column z of the group solves to +0 while the other three
// do not, and the trailing row 4 holds −0 that only column z touches. The
// one-column sweep skips column z, so row 4 stays −0. Applying it anyway
// computes −0 − (−0.5·+0) = +0, a sign the solution carries to x[4].
func TestSupernodalSolveZeroSkipExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for z := 0; z < 4; z++ {
		l := make([][]float64, 5)
		for i := range l {
			l[i] = make([]float64, i+1)
			l[i][i] = 1
		}
		l[4][z] = -0.5
		s := snRootFactor(l)
		b := sparse.Vec{1, 1, 1, 1, negZero}
		b[z] = 0
		want, got := sparse.NewVec(5), sparse.NewVec(5)
		snSolveSeqRef(s, want, b)
		if math.Float64bits(want[4]) != math.Float64bits(negZero) {
			t.Fatalf("z=%d: reference x[4] = %v, the case no longer isolates the skip", z, want[4])
		}
		s.SolveTo(got, b)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("z=%d: x[%d] = %v (%#x), reference %v (%#x)", z, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// snFuzzFactors are the small factors FuzzSupernodalSolve sweeps: an ND grid
// in Cholesky mode, an AMD saddle system in LDLᵀ mode, and dense root blocks
// of widths 1–9.
var snFuzzFactors = sync.OnceValues(func() ([]*Supernodal, error) {
	grid := sparse.Poisson2D(12, 12, 0.05)
	saddle := sparse.SaddlePoisson2D(8, 8, 1e-2)
	var out []*Supernodal
	for _, c := range []struct {
		a     *sparse.CSR
		order Ordering
		mode  SupernodalMode
	}{
		{grid.A, OrderND, ModeCholesky},
		{saddle.A, OrderAMD, ModeLDLT},
		{snBlockDiagSPD(1, 2, 3, 4, 5, 6, 7, 8, 9), OrderNatural, ModeCholesky},
	} {
		s, err := NewSupernodal(c.a, c.order, c.mode)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
})

// snDecodeRHS turns fuzz bytes into a right-hand side of length n: each
// entry takes two bytes, a selector and a value. The selector mostly yields
// small finite values and otherwise +0, −0 or ±Inf; entries past the data
// are zero. NaN is never produced: two NaN operands with different payloads
// may legitimately come out in either order.
func snDecodeRHS(data []byte, n int) sparse.Vec {
	b := sparse.NewVec(n)
	for i := 0; i < n && 2*i+1 < len(data); i++ {
		sel, v := data[2*i], data[2*i+1]
		switch sel % 16 {
		case 0, 1:
			b[i] = 0
		case 2:
			b[i] = math.Copysign(0, -1)
		case 3:
			if sel >= 128 {
				b[i] = math.Inf(1)
			} else {
				b[i] = math.Inf(-1)
			}
		default:
			b[i] = float64(int8(v)) / float64(sel%16)
		}
	}
	return b
}

// FuzzSupernodalSolve checks the register-blocked sweep against the
// one-column reference on fuzzed right-hand sides: the first byte picks the
// factor, the rest decode the right-hand side.
func FuzzSupernodalSolve(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 4, 10, 5, 20, 0, 0, 2, 0, 7, 100})
	f.Add(bytes.Repeat([]byte{2, 9, 37}, 100))
	f.Add(append([]byte{0}, bytes.Repeat([]byte{0, 0, 5, 1, 2, 0, 4, 200}, 40)...))
	f.Add([]byte{1, 3, 0, 131, 0, 6, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		factors, err := snFuzzFactors()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return
		}
		s := factors[int(data[0])%len(factors)]
		n := s.Dim()
		b := snDecodeRHS(data[1:], n)
		want, got := sparse.NewVec(n), sparse.NewVec(n)
		snSolveSeqRef(s, want, b)
		s.SolveTo(got, b)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("x[%d] = %v (%#x), reference %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}
