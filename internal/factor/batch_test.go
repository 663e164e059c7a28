package factor

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// batchBackends enumerates every sparse backend × ordering combination the
// byte-agreement contract covers. The grid systems exercise the Cholesky
// paths, the saddle systems the LDLᵀ paths.
func batchBackends(t *testing.T) []struct {
	name   string
	solver LocalSolver
} {
	t.Helper()
	grid := sparse.Poisson2D(28, 28, 0.05)
	saddle := sparse.SaddlePoisson2D(14, 14, 1e-2)
	orders := []struct {
		name  string
		order Ordering
	}{
		{"natural", OrderNatural},
		{"rcm", OrderRCM},
		{"amd", OrderAMD},
		{"nd", OrderND},
	}
	var out []struct {
		name   string
		solver LocalSolver
	}
	add := func(name string, s LocalSolver, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, struct {
			name   string
			solver LocalSolver
		}{name, s})
	}
	for _, o := range orders {
		chol, err := NewCholesky(grid.A, o.order)
		add("sparse-cholesky/"+o.name, chol, err)
		ldlt, err := NewLDLT(saddle.A, o.order)
		add("sparse-ldlt/"+o.name, ldlt, err)
		snc, err := NewSupernodal(grid.A, o.order, ModeCholesky)
		add("supernodal-cholesky/"+o.name, snc, err)
		snl, err := NewSupernodal(saddle.A, o.order, ModeLDLT)
		add("supernodal-ldlt/"+o.name, snl, err)
	}
	return out
}

func vecsEqual(a, b sparse.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSolveBatchAgreement pins the batch contract: SolveBatchTo must hand
// every right-hand side exactly the bytes k sequential SolveTo calls produce,
// on every sparse backend under every ordering, for batch widths on both
// sides of the panel cap (snBatchMaxK).
func TestSolveBatchAgreement(t *testing.T) {
	for _, tc := range batchBackends(t) {
		t.Run(tc.name, func(t *testing.T) {
			bs, ok := tc.solver.(BatchSolver)
			if !ok {
				t.Fatalf("%T does not implement BatchSolver", tc.solver)
			}
			n := tc.solver.Dim()
			for _, k := range []int{1, 2, 3, 8, 17, snBatchMaxK + 3} {
				B := make([]sparse.Vec, k)
				want := make([]sparse.Vec, k)
				got := make([]sparse.Vec, k)
				for r := range B {
					B[r] = sparse.RandomVec(n, int64(101*r+7))
					want[r] = sparse.NewVec(n)
					got[r] = sparse.NewVec(n)
					tc.solver.SolveTo(want[r], B[r])
				}
				bs.SolveBatchTo(got, B)
				for r := range B {
					if !vecsEqual(got[r], want[r]) {
						t.Fatalf("k=%d rhs %d: batched solve differs from scalar solve", k, r)
					}
				}
			}
		})
	}
}

// TestSolveBatchAliasing pins the aliasing clause of the contract: X[r] may
// be the same slice as B[r].
func TestSolveBatchAliasing(t *testing.T) {
	sys := sparse.Poisson2D(20, 20, 0.05)
	s, err := NewSupernodal(sys.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	n := s.Dim()
	B := make([]sparse.Vec, k)
	want := make([]sparse.Vec, k)
	for r := range B {
		B[r] = sparse.RandomVec(n, int64(r+1))
		want[r] = sparse.NewVec(n)
		s.SolveTo(want[r], B[r])
	}
	s.SolveBatchTo(B, B) // in place
	for r := range B {
		if !vecsEqual(B[r], want[r]) {
			t.Fatalf("rhs %d: aliased batch solve differs", r)
		}
	}
}

// TestLevelSolveAgreement pins byte-identity of the level-scheduled solve
// against the sequential sweep at GOMAXPROCS 1 and 4, on the 128² ND factor
// (the E8 acceptance system) and on a smaller LDLᵀ factor. SolveTo, which
// always runs the sequential sweep, must agree too.
func TestLevelSolveAgreement(t *testing.T) {
	cases := []struct {
		name  string
		sys   sparse.System
		mode  SupernodalMode
		order Ordering
	}{
		{"poisson-128-nd", sparse.Poisson2D(128, 128, 0.05), ModeCholesky, OrderND},
		{"saddle-48-amd", sparse.SaddlePoisson2D(48, 48, 1e-2), ModeLDLT, OrderAMD},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSupernodal(tc.sys.A, tc.order, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			n := s.Dim()
			b := sparse.RandomVec(n, 42)
			want := sparse.NewVec(n)
			s.SolveSeqTo(want, b)

			prev := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(prev)
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				got := sparse.NewVec(n)
				s.SolveLevelTo(got, b)
				if !vecsEqual(got, want) {
					t.Fatalf("GOMAXPROCS=%d: level-scheduled solve differs from sequential", procs)
				}
				got2 := sparse.NewVec(n)
				s.SolveTo(got2, b)
				if !vecsEqual(got2, want) {
					t.Fatalf("GOMAXPROCS=%d: SolveTo differs from sequential", procs)
				}
			}
		})
	}
}

// TestLevelSolveRouting pins the dispatch policy: SolveTo never routes to
// the level schedule, which spawns goroutines and allocates per call. On the
// 128² ND factor at GOMAXPROCS=2, SolveTo is the sequential sweep and
// allocates nothing. The level sets the explicit SolveLevelTo runs on must
// still cover every supernode exactly once.
func TestLevelSolveRouting(t *testing.T) {
	sys := sparse.Poisson2D(128, 128, 0.05)
	s, err := NewSupernodal(sys.A, OrderND, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	n := s.Dim()
	want, got := sparse.NewVec(n), sparse.NewVec(n)
	s.SolveSeqTo(want, sys.B)
	allocs := testing.AllocsPerRun(20, func() { s.SolveTo(got, sys.B) })
	if allocs != 0 && !raceEnabled {
		t.Errorf("SolveTo at GOMAXPROCS=2 allocates %.1f times per call, want 0", allocs)
	}
	if !vecsEqual(got, want) {
		t.Fatal("SolveTo differs from SolveSeqTo")
	}
	if len(s.levList) != s.ns {
		t.Fatalf("level sets cover %d of %d supernodes", len(s.levList), s.ns)
	}
	seen := make([]bool, s.ns)
	nlev := len(s.levPtr) - 1
	for l := 0; l < nlev; l++ {
		for _, sn := range s.levList[s.levPtr[l]:s.levPtr[l+1]] {
			if seen[sn] {
				t.Fatalf("supernode %d appears in two levels", sn)
			}
			seen[sn] = true
			// Every descendant referenced by the update lists must live on a
			// strictly lower level — the correctness condition of the
			// per-level barrier.
			for _, u := range s.upd[sn] {
				if levelOf(s, u.d) >= l {
					t.Fatalf("supernode %d (level %d) depends on %d (level %d)", sn, l, u.d, levelOf(s, u.d))
				}
			}
		}
	}
}

func levelOf(s *Supernodal, sn int32) int {
	nlev := len(s.levPtr) - 1
	for l := 0; l < nlev; l++ {
		for _, x := range s.levList[s.levPtr[l]:s.levPtr[l+1]] {
			if x == sn {
				return l
			}
		}
	}
	return -1
}

// TestSolveBatchConcurrentCached is the service-shaped race pin: many
// goroutines pull one factor from a cache and run batched solves on it
// concurrently. Every stream must see the sequential bytes (run under -race
// in CI).
func TestSolveBatchConcurrentCached(t *testing.T) {
	const goroutines = 6
	const k = 9
	sys := sparse.Poisson2D(48, 48, 0.05)
	cache := NewCache(1 << 30)
	s, hit, err := cache.GetOrFactor(SparseSupernodal, sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first GetOrFactor reported a hit")
	}
	n := s.Dim()
	B := make([]sparse.Vec, k)
	want := make([]sparse.Vec, k)
	for r := range B {
		B[r] = sparse.RandomVec(n, int64(13*r+5))
		want[r] = sparse.NewVec(n)
		s.SolveTo(want[r], B[r])
	}
	var wg sync.WaitGroup
	fail := make([]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sg, hit, err := cache.GetOrFactor(SparseSupernodal, sys.A)
			if err != nil || !hit {
				fail[g] = true
				return
			}
			X := make([]sparse.Vec, k)
			for r := range X {
				X[r] = sparse.NewVec(n)
			}
			for iter := 0; iter < 8; iter++ {
				SolveBatch(sg, X, B)
				for r := range X {
					if !vecsEqual(X[r], want[r]) {
						fail[g] = true
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, f := range fail {
		if f {
			t.Fatalf("goroutine %d: concurrent batched solve on the cached factor diverged", g)
		}
	}
	if st := cache.Stats(); st.Hits < goroutines {
		t.Fatalf("expected ≥%d cache hits, got %+v", goroutines, st)
	}
}

// TestSolveBatchFallback pins the SolveBatch helper on a dense backend (no
// BatchSolver implementation): the sequential fallback must match SolveTo.
func TestSolveBatchFallback(t *testing.T) {
	sys := sparse.PaperExample()
	s, err := New(DenseCholesky, sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(BatchSolver); ok {
		t.Fatalf("test premise broken: %T implements BatchSolver", s)
	}
	n := s.Dim()
	B := []sparse.Vec{sys.B, sparse.RandomVec(n, 3)}
	X := []sparse.Vec{sparse.NewVec(n), sparse.NewVec(n)}
	SolveBatch(s, X, B)
	for r := range B {
		want := sparse.NewVec(n)
		s.SolveTo(want, B[r])
		if !vecsEqual(X[r], want) {
			t.Fatalf("rhs %d: fallback batch differs from SolveTo", r)
		}
	}
}

// TestSolveBatchScratchReuse pins the per-batch scratch hoisting: after a
// warm-up call, a whole batched solve must run allocation-free on every
// sparse backend (the scalar path allocates nothing either, per solve).
func TestSolveBatchScratchReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short races")
	}
	grid := sparse.Poisson2D(24, 24, 0.05)
	s, err := NewSupernodal(grid.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	n := s.Dim()
	B := make([]sparse.Vec, k)
	X := make([]sparse.Vec, k)
	for r := range B {
		B[r] = sparse.RandomVec(n, int64(r+1))
		X[r] = sparse.NewVec(n)
	}
	s.SolveBatchTo(X, B) // warm the pool
	avg := testing.AllocsPerRun(20, func() {
		s.SolveBatchTo(X, B)
	})
	// A GC between runs may clear the pool once; anything beyond that means
	// the batch path re-acquires scratch per RHS again.
	if avg > 2 {
		t.Fatalf("batched solve allocates %.1f allocs/op; scratch hoisting regressed", avg)
	}
	x := sparse.NewVec(n)
	s.SolveTo(x, B[0])
	avg = testing.AllocsPerRun(20, func() {
		s.SolveTo(x, B[0])
	})
	if avg > 2 {
		t.Fatalf("scalar solve allocates %.1f allocs/op; pool reuse regressed", avg)
	}
}
