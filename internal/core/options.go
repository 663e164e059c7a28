package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/chaos"
	"repro/internal/dtl"
	"repro/internal/factor"
	"repro/internal/sparse"
)

// Engine selects which execution engine Solve drives. All engines share the
// same numerics — the factorised subdomains of eq. (5.9) exchanging waves —
// and differ only in how the exchanges are scheduled.
type Engine int

const (
	// EngineDES runs the fully asynchronous DTM on the deterministic
	// discrete-event simulator — byte-identical run over run, the engine the
	// paper's figures and every oracle comparison use. The default.
	EngineDES Engine = iota
	// EngineVTM runs the synchronous Virtual Transmission Method: lock-step
	// sweeps with a simultaneous wave exchange after each (eq. (5.10)).
	EngineVTM
	// EngineMixed alternates asynchronous DES windows with globally
	// synchronous sweeps (the "async-sync-async-sync" variant of the paper's
	// conclusions).
	EngineMixed
	// EngineLive runs the DES engine's part nodes on one goroutine per
	// subdomain with real (scaled) communication delays and wall-clock
	// timers — genuinely asynchronous, not deterministic.
	EngineLive
)

// String returns the engine's short name as used by CLIs and reports.
func (e Engine) String() string {
	switch e {
	case EngineDES:
		return "des"
	case EngineVTM:
		return "vtm"
	case EngineMixed:
		return "mixed"
	case EngineLive:
		return "live"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// CommonOptions is the engine-independent half of a solve Config: the knobs
// every engine interprets the same way, so the four engines share one set of
// fields and one normalize.
type CommonOptions struct {
	// Impedance selects the characteristic impedance of every DTLP.
	// Default: dtl.DiagScaled{Alpha: 1}.
	Impedance dtl.ImpedanceStrategy

	// LocalSolver is the factor selection every subdomain factorises its
	// constant system with: a backend registered in internal/factor
	// ("dense-cholesky", "dense-lu", "sparse-cholesky", "sparse-ldlt",
	// "sparse-supernodal" or "auto"), optionally with the sparse backends'
	// fill-reducing ordering, e.g. "sparse-supernodal,order=nd" (see
	// factor.ParseSelection). Empty selects "auto". The selection belongs to
	// this call alone: results are byte-identical run over run for a fixed
	// selection, whatever other solves ran before or alongside — including
	// "sparse-supernodal", whose parallel subtree factorisation is
	// deterministic at every GOMAXPROCS.
	LocalSolver string

	// Tol, when positive, stops the run early once the computation has
	// quiesced in the distributed sense: every subdomain has solved at least
	// once, the last local solve of every subdomain moved its boundary
	// potentials by less than Tol, and the largest twin disagreement is below
	// Tol. Under an enabled fault spec the fault layer must also be quiet (see
	// Faults). The DES, mixed and live engines evaluate the rule after every
	// event; VTM after every sweep.
	Tol float64

	// SendThreshold suppresses messages to a neighbour when none of the waves
	// toward it changed by more than this amount since the last send. Zero
	// means every solve broadcasts to all neighbours (the paper's Table 1
	// behaviour); a small positive value lets a converged computation go
	// quiet on its own. Under an enabled fault spec a zero threshold defaults
	// to Tol/100 (1e-12 when Tol is zero): the fault-aware stop waits for
	// every state-bearing wave to be applied, and a network that re-announces
	// sub-tolerance changes forever never drains.
	SendThreshold float64

	// Exact, when non-nil, is the exact solution used for RMS-error traces.
	Exact sparse.Vec

	// StopOnError, when positive and Exact is supplied, stops the run as soon
	// as the RMS error drops to or below this value (every engine; the live
	// engine tests it after every event, like Tol).
	StopOnError float64

	// RecordTrace enables the convergence-history trace.
	RecordTrace bool

	// TraceMaxPoints bounds the number of retained trace points (default 2000).
	TraceMaxPoints int

	// Faults, when non-nil and enabled, injects deterministic channel faults
	// (drops, duplicates, jitter, link-down windows, crash-restart) into the
	// run and activates the recovery machinery: sequence-numbered waves with
	// last-writer-wins deduplication, watchdog retransmission, and periodic
	// snapshots. Tol-quiescence then also waits until no link-down or crash
	// window is open, no part is down or past its crash time without having
	// crashed, and every announced wave has been applied. DES runs stay byte-identical per Faults.Seed. A nil or
	// disabled spec leaves every fault-path branch off.
	Faults *chaos.Spec

	// MaxWallTime is the wall-clock deadline of the run, applied the same
	// way to every engine, as a deadline on the ctx Solve hands the engine.
	// Required for the live engine (it bounds real execution); optional
	// elsewhere. A run that the deadline (or the caller's ctx) ends before
	// convergence returns its partial result alongside ErrDeadlineExceeded
	// when a convergence target was set.
	MaxWallTime time.Duration
}

// Config is the complete configuration of a Solve call: the shared
// CommonOptions, the engine selector, and the engine-specific scheduling
// fields (each documented with the engines that read it).
type Config struct {
	CommonOptions

	// Engine selects the execution engine. Default: EngineDES.
	Engine Engine

	// MaxTime is the virtual time horizon (same unit as the topology's
	// delays). Required by the DES and mixed engines.
	MaxTime float64

	// ComputeTime models the local solve time of a subdomain (virtual time)
	// for the DES and mixed engines. When nil, each solve takes 5% of the
	// smallest communication delay, which keeps the processors busy a
	// realistic fraction of the time and bounds the message rate.
	ComputeTime func(part, dim int) float64

	// Observer, when non-nil, is invoked by the DES, mixed and live engines
	// after every asynchronous local solve with the virtual completion time,
	// the part that solved, and its local solution vector [u_ports; y_inner]
	// (a live buffer — copy it if it must be kept). The live engine calls it
	// from the solving part's goroutine with the engine lock held, so calls
	// never overlap and it must not block. Experiments use it to record
	// individual port potentials (Fig. 8).
	Observer func(now float64, part int, local sparse.Vec)

	// MaxIterations bounds the number of synchronous sweeps. Required by the
	// VTM engine.
	MaxIterations int

	// AsyncWindow is the length of each asynchronous phase (virtual time).
	// Required by the mixed engine.
	AsyncWindow float64

	// SyncSweeps is the number of synchronous sweeps performed after each
	// asynchronous window of the mixed engine (default 1).
	SyncSweeps int

	// SyncSweepCost is the virtual cost the mixed engine charges per
	// synchronous sweep. The default is the slowest round-trip delay between
	// adjacent subdomains — what a barrier on that machine actually costs.
	SyncSweepCost float64

	// TimeScale converts one topology time unit into wall-clock time for the
	// live engine, e.g. 100·time.Microsecond turns a 10 ms-unit mesh delay
	// into 1 ms of real time. Default: 100 µs per unit. The fault spec's
	// windows and schedules and the watchdog, snapshot and crash timers,
	// expressed in topology time units, are mapped through the same scale;
	// the Observer's now is in topology units, while the live Result's
	// FinalTime and trace times are wall-clock seconds.
	TimeScale time.Duration
}

// normalize fills the defaults every engine shares — the single home of the
// defaulting rules that used to be copy-pasted per engine (notably the
// fault-mode SendThreshold = Tol/100 rule, which lived in both the DES fault
// layer and the live engine).
func (c *Config) normalize() {
	if c.Impedance == nil {
		c.Impedance = dtl.DiagScaled{Alpha: 1}
	}
	if c.TraceMaxPoints <= 0 {
		c.TraceMaxPoints = 2000
	}
	if c.Faults.Enabled() && c.SendThreshold == 0 {
		// The fault-aware stop refuses to declare convergence while any
		// state-bearing wave is unapplied, so quiescence requires the network
		// to drain — impossible with a zero send threshold, which re-announces
		// sub-tolerance changes after every solve forever. Two orders below
		// the stopping tolerance, so suppression can never hold the twin gap
		// above Tol.
		c.SendThreshold = c.Tol / 100
		if c.SendThreshold <= 0 {
			c.SendThreshold = 1e-12
		}
	}
	switch c.Engine {
	case EngineMixed:
		if c.SyncSweeps <= 0 {
			c.SyncSweeps = 1
		}
	case EngineLive:
		if c.TimeScale <= 0 {
			c.TimeScale = 100 * time.Microsecond
		}
	}
}

// validate checks the configuration against the problem: the shared fields
// once, then the fields the selected engine requires.
func (c *Config) validate(p *Problem) error {
	if c.Exact != nil && len(c.Exact) != p.System.Dim() {
		return fmt.Errorf("core: Exact has length %d, want %d", len(c.Exact), p.System.Dim())
	}
	if c.Tol < 0 || c.StopOnError < 0 || c.SendThreshold < 0 {
		return fmt.Errorf("core: tolerances must be non-negative")
	}
	if _, err := factor.ParseSelection(c.LocalSolver); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Faults.Enabled() && c.Engine == EngineVTM {
		return fmt.Errorf("core: the VTM engine is a reliable synchronous baseline and does not take a fault spec")
	}
	switch c.Engine {
	case EngineDES:
		if c.MaxTime <= 0 || math.IsNaN(c.MaxTime) {
			return fmt.Errorf("core: MaxTime must be positive for the des engine, got %g", c.MaxTime)
		}
	case EngineVTM:
		if c.MaxIterations <= 0 {
			return fmt.Errorf("core: MaxIterations must be positive for the vtm engine, got %d", c.MaxIterations)
		}
	case EngineMixed:
		if c.MaxTime <= 0 || math.IsNaN(c.MaxTime) {
			return fmt.Errorf("core: MaxTime must be positive for the mixed engine, got %g", c.MaxTime)
		}
		if c.AsyncWindow <= 0 || math.IsNaN(c.AsyncWindow) {
			return fmt.Errorf("core: AsyncWindow must be positive for the mixed engine, got %g", c.AsyncWindow)
		}
	case EngineLive:
		if c.MaxWallTime <= 0 {
			return fmt.Errorf("core: MaxWallTime must be positive for the live engine")
		}
	default:
		return fmt.Errorf("core: unknown engine %v", c.Engine)
	}
	return nil
}

// computeTimeFn resolves the compute-time model, defaulting to 5% of the
// smallest inter-subdomain delay of the problem.
func (c *Config) computeTimeFn(p *Problem) func(part, dim int) float64 {
	if c.ComputeTime != nil {
		return c.ComputeTime
	}
	minDelay := math.Inf(1)
	adj := p.Partition.AdjacentParts()
	for a, neighbours := range adj {
		for _, b := range neighbours {
			if d := p.Delay(a, b); d < minDelay {
				minDelay = d
			}
		}
	}
	if math.IsInf(minDelay, 1) {
		minDelay = 1
	}
	ct := 0.05 * minDelay
	return func(part, dim int) float64 { return ct }
}
