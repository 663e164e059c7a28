package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/iterative"
	"repro/internal/sparse"
	"repro/internal/topology"
)

func TestSolveLiveValidation(t *testing.T) {
	prob, _ := gridProblem(t, 6, 2, nil)
	if _, err := Solve(context.Background(), prob, Config{Engine: EngineLive}); err == nil {
		t.Errorf("a live run without MaxWallTime must be rejected")
	}
	if _, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{MaxWallTime: time.Second, Exact: sparse.Vec{1, 2}}, Engine: EngineLive}); err == nil {
		t.Errorf("a wrong-length exact vector must be rejected")
	}
	if _, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{MaxWallTime: time.Second, Faults: &chaos.Spec{Drop: 2}}, Engine: EngineLive}); err == nil {
		t.Errorf("an invalid fault spec must be rejected")
	}
}

// liveRuns is how many independent live runs each convergence test makes: the
// interleaving differs per run, and a wrong stopping rule shows up as an
// occasional converged-but-wrong answer, not as a failure of every run.
const liveRuns = 30

func TestSolveLiveConvergesOnGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine test skipped in -short mode")
	}
	sys := sparse.Poisson2D(8, 8, 0.05)
	topo := topology.Mesh(2, 2, "small mesh", func(from, to int) float64 { return 5 + float64(from) })
	prob, err := GridProblem(sys, 8, 8, 2, 2, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	exact, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 2000, Tol: 1e-13})
	if err != nil || !st.Converged {
		t.Fatalf("reference CG failed")
	}
	for run := 0; run < liveRuns; run++ {
		res, err := Solve(context.Background(), prob, Config{
			CommonOptions: CommonOptions{MaxWallTime: 10 * time.Second, Tol: 1e-9, Exact: exact, RecordTrace: true},
			Engine:        EngineLive,
			TimeScale:     5 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("run %d: Solve: %v", run, err)
		}
		if !res.Converged {
			t.Fatalf("run %d: live run did not converge within the wall-time budget (error %g)", run, res.RMSError)
		}
		if d := res.X.MaxAbsDiff(exact); d > 1e-6 {
			t.Errorf("run %d: converged live solution is %g from CG (RMS error %g, residual %g)", run, d, res.RMSError, res.Residual)
		}
		if res.Residual > 1e-5 {
			t.Errorf("run %d: live residual = %g", run, res.Residual)
		}
		if res.Solves == 0 || res.Messages == 0 {
			t.Errorf("run %d: live run recorded no work: %+v", run, res)
		}
		if res.FinalTime <= 0 {
			t.Errorf("run %d: live run must report a positive wall time, got %g", run, res.FinalTime)
		}
	}
}

func TestSolveLiveMatchesDESFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine test skipped in -short mode")
	}
	sys := sparse.RandomGridSPD(7, 7, 11)
	topo := topology.Uniform(4, 10, "uniform")
	prob, err := GridProblem(sys, 7, 7, 2, 2, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	des, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Tol: 1e-10}, MaxTime: 20000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for run := 0; run < liveRuns; run++ {
		live, err := Solve(context.Background(), prob, Config{
			CommonOptions: CommonOptions{MaxWallTime: 10 * time.Second, Tol: 1e-9},
			Engine:        EngineLive,
			TimeScale:     5 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("run %d: Solve: %v", run, err)
		}
		if !live.Converged {
			t.Fatalf("run %d: live run did not converge", run)
		}
		// Both engines must land on the same solution (the exact one), even
		// though their interleavings are completely different.
		if !des.X.Equal(live.X, 1e-6) {
			t.Errorf("run %d: DES and live solutions differ by %g", run, des.X.MaxAbsDiff(live.X))
		}
	}
}

// TestSolveLiveStopOnErrorAndObserver checks the two rules the live engine
// shares with the DES engine through the common part node: the oracle stop
// (StopOnError, with no Tol set) and the per-solve Observer, which sees every
// local solve exactly once.
func TestSolveLiveStopOnErrorAndObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine test skipped in -short mode")
	}
	sys := sparse.Poisson2D(8, 8, 0.05)
	prob, err := GridProblem(sys, 8, 8, 2, 2, topology.Uniform(4, 10, "uniform"))
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	exact, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 2000, Tol: 1e-13})
	if err != nil || !st.Converged {
		t.Fatalf("reference CG failed")
	}
	observed := 0
	res, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{MaxWallTime: 10 * time.Second, Exact: exact, StopOnError: 1e-6},
		Engine:        EngineLive,
		TimeScale:     5 * time.Microsecond,
		Observer: func(now float64, part int, local sparse.Vec) {
			observed++
		},
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged || res.RMSError > 1e-6 {
		t.Fatalf("StopOnError must end the live run: converged=%v RMS error %g", res.Converged, res.RMSError)
	}
	if observed != res.Solves {
		t.Errorf("Observer saw %d solves, the run made %d", observed, res.Solves)
	}
}

// TestSolveLiveDeadlineExceeded pins the deadline contract: a run that cannot
// reach its tolerance in the wall-time budget returns ErrDeadlineExceeded
// together with the partial result, and an already-cancelled caller context
// ends the run the same way.
func TestSolveLiveDeadlineExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine test skipped in -short mode")
	}
	sys := sparse.Poisson2D(8, 8, 0.05)
	prob, err := GridProblem(sys, 8, 8, 2, 2, topology.Uniform(4, 10, "uniform"))
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	res, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			MaxWallTime: 200 * time.Millisecond,
			Tol:         1e-300, // unreachable: forces the deadline path
		},
		Engine:    EngineLive,
		TimeScale: 5 * time.Microsecond,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("the partial result must accompany ErrDeadlineExceeded")
	}
	if res.Converged {
		t.Error("a deadline-exceeded run cannot be marked converged")
	}
	if math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
		t.Errorf("the partial result must carry a finite residual, got %g", res.Residual)
	}
	if res.Solves == 0 {
		t.Error("the run must have made progress before the deadline")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = Solve(ctx, prob, Config{
		CommonOptions: CommonOptions{MaxWallTime: 10 * time.Second, Tol: 1e-9},
		Engine:        EngineLive,
		TimeScale:     5 * time.Microsecond,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("cancelled context: err = %v, want ErrDeadlineExceeded", err)
	}
	if res == nil || res.Converged {
		t.Errorf("cancelled context must yield a non-converged partial result, got %+v", res)
	}
}

// TestSolveLiveFaultsRecover drives the live engine's whole fault path — real
// dropped and duplicated sends, watchdog retransmissions, and one crash-restart
// from a snapshot — at GOMAXPROCS=4, and checks the run still lands on the DES
// engine's solution. The crash is scheduled well inside the run: the DES run
// of the same spec must go through it too. Run it under -race: the live
// engine's goroutines, mailboxes and wall-clock timers around the shared part
// nodes are exactly the code this guards.
func TestSolveLiveFaultsRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine test skipped in -short mode")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	sys := sparse.RandomGridSPD(7, 7, 11)
	prob, err := GridProblem(sys, 7, 7, 2, 2, topology.Uniform(4, 10, "uniform"))
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	spec := &chaos.Spec{
		Seed: 17, Drop: 0.20, Dup: 0.05, Jitter: 0.5,
		Crashes:       []chaos.Crash{{Part: 2, At: 100, RestartAfter: 200}},
		SnapshotEvery: 50,
	}
	des, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Tol: 1e-9, Faults: spec}, MaxTime: 20000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !des.Converged || des.Faults.Crashes != 1 || des.Faults.Restarts != 1 {
		t.Fatalf("the DES run of the spec must converge through its crash: converged=%v at t=%g, crash/restart %d/%d",
			des.Converged, des.FinalTime, des.Faults.Crashes, des.Faults.Restarts)
	}
	live, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{MaxWallTime: 20 * time.Second, Tol: 1e-9, Faults: spec},
		Engine:        EngineLive,
		TimeScale:     5 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !live.Converged {
		t.Fatalf("faulted live run did not converge (twin gap %g)", live.TwinGap)
	}
	if live.Faults == nil {
		t.Fatal("a faulted run must report fault statistics")
	}
	if live.Faults.Dropped == 0 {
		t.Errorf("20%% drop over a full run must drop something: %+v", live.Faults)
	}
	if live.Faults.Crashes != 1 || live.Faults.Restarts != 1 {
		t.Errorf("crash/restart counts = %d/%d, want 1/1", live.Faults.Crashes, live.Faults.Restarts)
	}
	if !des.X.Equal(live.X, 1e-6) {
		t.Errorf("faulted live solution differs from DES by %g", des.X.MaxAbsDiff(live.X))
	}
}
