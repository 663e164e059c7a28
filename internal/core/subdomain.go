package core

import (
	"fmt"
	"math"

	"repro/internal/factor"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// LinkEnd is one endpoint of a DTLP as seen from inside a subdomain: the local
// port it terminates on, the remote subdomain the matching endpoint lives in,
// and the characteristic impedance shared by both directions of the pair.
type LinkEnd struct {
	// LinkID is the global id of the twin link (partition.TwinLink.ID).
	LinkID int
	// Port is the local port index the line terminates on.
	Port int
	// Remote is the part at the other end of the line.
	Remote int
	// Z is the characteristic impedance of the pair (strictly positive).
	Z float64
}

// Subdomain is the per-processor state of DTM: the factorised local system of
// equation (5.9), the incident DTL endpoints, the latest incoming waves
// (remote boundary conditions) and the latest local solution.
//
// Subdomain is not safe for concurrent use by itself; the DES engine calls it
// from a single goroutine and the live engine confines each Subdomain to the
// goroutine of its processor.
type Subdomain struct {
	part      int
	numPorts  int
	globalIdx []int

	solver  factor.LocalSolver
	baseRHS sparse.Vec

	ends []LinkEnd
	// endOfLink maps a global link id to its local end index (-1 when the link
	// does not terminate here); a flat slice, not a map, because link ids are
	// dense and the lookup sits on the per-message hot path.
	endOfLink []int32
	invZ      []float64 // 1/Z per end
	// adjacent is the sorted set of remote parts and endsByAdj[i] the end
	// indices towards adjacent[i] — both precomputed once so the per-send hot
	// path never rebuilds them.
	adjacent  []int
	endsByAdj [][]int

	// incoming[k] is the latest received wave on end k:
	//   r_k = u_twin(t-τ) − Z·ω_twin(t-τ)
	incoming []float64

	x         sparse.Vec // latest local solution [u; y]
	rhs       sparse.Vec // scratch right-hand side
	prevPorts []float64  // scratch: port potentials before the latest solve
	solves    int
	spd       bool // whether the local matrix was Cholesky-factorisable

	// localA, sel and cache are kept so a crash-restarted subdomain can
	// rebuild its factorisation exactly as before (Refactor); snapX and
	// snapIncoming hold the latest in-memory snapshot a restart rolls back to.
	localA       *sparse.CSR
	sel          string
	cache        *factor.Cache
	snapX        sparse.Vec
	snapIncoming []float64
	hasSnap      bool
}

// NewSubdomain builds the DTM subdomain for one EVS subgraph. links must be
// the twin links incident to sub.Part (in any order) and z the characteristic
// impedance per link ID (indexed by TwinLink.ID over the whole partition).
//
// The local coefficient matrix is A_local + Σ_ends (1/Z) e_p e_pᵀ — constant
// throughout the computation — and is factorised here once under the factor
// selection sel (see CommonOptions.LocalSolver; empty selects "auto":
// Cholesky sized to the block, falling back to LU with partial pivoting for
// merely-SNND blocks). A non-nil cache serves the factorisation and any later
// Refactor; nil factorises directly.
func NewSubdomain(sub *partition.Subdomain, links []partition.TwinLink, z []float64, sel string, cache *factor.Cache) (*Subdomain, error) {
	s := &Subdomain{
		part:      sub.Part,
		numPorts:  sub.NumPorts,
		globalIdx: append([]int(nil), sub.GlobalIdx...),
		baseRHS:   sub.B.Clone(),
		endOfLink: make([]int32, len(z)),
		x:         sparse.NewVec(sub.Dim()),
		rhs:       sparse.NewVec(sub.Dim()),
		prevPorts: make([]float64, sub.NumPorts),
	}
	for i := range s.endOfLink {
		s.endOfLink[i] = -1
	}

	// Collect the DTL endpoints that terminate in this part.
	diagAdd := sparse.NewVec(sub.Dim())
	for _, l := range links {
		if l.PartA != sub.Part && l.PartB != sub.Part {
			return nil, fmt.Errorf("core: link %d does not touch part %d", l.ID, sub.Part)
		}
		if l.ID < 0 || l.ID >= len(z) {
			return nil, fmt.Errorf("core: no impedance for link %d", l.ID)
		}
		zl := z[l.ID]
		if !(zl > 0) || math.IsNaN(zl) || math.IsInf(zl, 0) {
			return nil, fmt.Errorf("core: impedance of link %d must be positive, got %g", l.ID, zl)
		}
		var port, remote int
		if l.PartA == sub.Part {
			port, remote = l.PortA, l.PartB
		} else {
			port, remote = l.PortB, l.PartA
		}
		if port < 0 || port >= sub.NumPorts {
			return nil, fmt.Errorf("core: link %d terminates on local index %d which is not a port of part %d", l.ID, port, sub.Part)
		}
		end := LinkEnd{LinkID: l.ID, Port: port, Remote: remote, Z: zl}
		s.endOfLink[l.ID] = int32(len(s.ends))
		s.ends = append(s.ends, end)
		s.invZ = append(s.invZ, 1/zl)
		diagAdd[port] += 1 / zl
	}
	s.incoming = make([]float64, len(s.ends))
	s.buildAdjacency()

	// Build and factorise the constant local matrix of eq. (5.9).
	local := sub.A.AddDiag(diagAdd)
	s.localA, s.sel, s.cache = local, sel, cache
	if err := s.Refactor(); err != nil {
		return nil, err
	}
	return s, nil
}

// Part returns the subdomain (part) index.
func (s *Subdomain) Part() int { return s.part }

// Dim returns the number of local unknowns.
func (s *Subdomain) Dim() int { return len(s.globalIdx) }

// NumPorts returns the number of local ports.
func (s *Subdomain) NumPorts() int { return s.numPorts }

// GlobalIdx returns the mapping from local index to global vertex id.
func (s *Subdomain) GlobalIdx() []int { return s.globalIdx }

// Ends returns the DTL endpoints terminating in this subdomain.
func (s *Subdomain) Ends() []LinkEnd { return s.ends }

// Solves returns how many local solves have been performed.
func (s *Subdomain) Solves() int { return s.solves }

// IsSPD reports whether the local system was factorised by a Cholesky
// backend and is therefore certified SPD. Under an explicitly selected LU
// backend it is false regardless of the matrix's actual definiteness (LU
// never certifies it); under the default auto policy it keeps its historical
// meaning of "Cholesky succeeded".
func (s *Subdomain) IsSPD() bool { return s.spd }

// SolverBackend returns the name of the factorisation backend in use.
func (s *Subdomain) SolverBackend() string { return s.solver.Backend() }

// X returns the latest local solution [u_ports; y_inner]. The returned slice
// is the live buffer; callers that need a stable copy must Clone it.
func (s *Subdomain) X() sparse.Vec { return s.x }

// SetIncomingByLink records a freshly received wave r = u_twin − Z·ω_twin for
// the end attached to the given link. It reports whether the link terminates
// in this subdomain.
func (s *Subdomain) SetIncomingByLink(linkID int, wave float64) bool {
	if linkID < 0 || linkID >= len(s.endOfLink) {
		return false
	}
	k := s.endOfLink[linkID]
	if k < 0 {
		return false
	}
	s.incoming[k] = wave
	return true
}

// Incoming returns the latest received wave on end k.
func (s *Subdomain) Incoming(k int) float64 { return s.incoming[k] }

// Solve re-solves the local system with the current incoming waves and returns
// the largest absolute change of any port potential relative to the previous
// solution. It performs only a forward/backward substitution — the
// factorisation was done once in NewSubdomain.
func (s *Subdomain) Solve() float64 {
	s.rhs.CopyFrom(s.baseRHS)
	for k, e := range s.ends {
		// f_p + (1/Z)·(u_twin − Z·ω_twin)(t−τ), the right-hand side of (5.9).
		s.rhs[e.Port] += s.invZ[k] * s.incoming[k]
	}
	prev := s.prevPorts
	copy(prev, s.x[:s.numPorts])
	s.solver.SolveTo(s.x, s.rhs)
	s.solves++
	var change float64
	for p := 0; p < s.numPorts; p++ {
		if d := math.Abs(s.x[p] - prev[p]); d > change {
			change = d
		}
	}
	return change
}

// SolveBatch solves the local system for several incoming-wave sets at once,
// without disturbing the subdomain's own state: waveSets[s] holds one wave
// per end (in end order), and the returned X[s] is the local solution the
// subdomain would reach under wave set s. All right-hand sides sweep the
// factor together through factor.SolveBatch, so backends implementing
// factor.BatchSolver stream the factor once per direction instead of once per
// set — the service path a factor cache front-end uses to answer many
// boundary scenarios against one factorisation. The incoming waves, the
// latest solution and the port history are left untouched; only the solve
// counter advances (by len(waveSets)), since each set costs one
// forward/backward sweep of work.
func (s *Subdomain) SolveBatch(waveSets [][]float64) []sparse.Vec {
	k := len(waveSets)
	X := make([]sparse.Vec, k)
	B := make([]sparse.Vec, k)
	dim := len(s.globalIdx)
	for i, waves := range waveSets {
		if len(waves) != len(s.ends) {
			panic(fmt.Sprintf("core: wave set %d has %d waves for %d ends", i, len(waves), len(s.ends)))
		}
		b := sparse.NewVec(dim)
		b.CopyFrom(s.baseRHS)
		for e := range s.ends {
			b[s.ends[e].Port] += s.invZ[e] * waves[e]
		}
		B[i] = b
		X[i] = sparse.NewVec(dim)
	}
	factor.SolveBatch(s.solver, X, B)
	s.solves += k
	return X
}

// PortPotential returns the latest potential of local port p.
func (s *Subdomain) PortPotential(p int) float64 { return s.x[p] }

// EndCurrent returns the inflow current carried by end k with the latest local
// solution: ω_k = (r_k − u_p)/Z.
func (s *Subdomain) EndCurrent(k int) float64 {
	e := s.ends[k]
	return (s.incoming[k] - s.x[e.Port]) * s.invZ[k]
}

// PortCurrent returns the total inflow current of local port p (the sum over
// the DTL endpoints terminating on it).
func (s *Subdomain) PortCurrent(p int) float64 {
	var w float64
	for k, e := range s.ends {
		if e.Port == p {
			w += s.EndCurrent(k)
		}
	}
	return w
}

// OutgoingWave returns the wave to send down end k after the latest solve.
// The remote twin's delay equation (2.2) reads
//
//	u_twin(t) + Z·ω_twin(t) = u_p(t−τ) − Z·ω_k(t−τ)
//
// so the value this side must transmit is u_p − Z·ω_k, with ω_k the inflow
// current this line carries into the local port. Since ω_k = (r_k − u_p)/Z,
// the outgoing wave simplifies to 2·u_p − r_k (the port potential reflected
// against the incident wave, as in classic scattering formulations).
func (s *Subdomain) OutgoingWave(k int) float64 {
	e := s.ends[k]
	return 2*s.x[e.Port] - s.incoming[k]
}

// buildAdjacency precomputes the sorted adjacent-part list and the ends
// grouped by remote part, so the send hot path never rebuilds either.
func (s *Subdomain) buildAdjacency() {
	seen := map[int]bool{}
	for _, e := range s.ends {
		if !seen[e.Remote] {
			seen[e.Remote] = true
			s.adjacent = append(s.adjacent, e.Remote)
		}
	}
	// ends are built in link-ID order; sort for determinism.
	for i := 1; i < len(s.adjacent); i++ {
		for j := i; j > 0 && s.adjacent[j] < s.adjacent[j-1]; j-- {
			s.adjacent[j], s.adjacent[j-1] = s.adjacent[j-1], s.adjacent[j]
		}
	}
	s.endsByAdj = make([][]int, len(s.adjacent))
	for k, e := range s.ends {
		for i, r := range s.adjacent {
			if r == e.Remote {
				s.endsByAdj[i] = append(s.endsByAdj[i], k)
				break
			}
		}
	}
}

// EndsTowards returns the indices of the ends whose remote part is the given
// part, in increasing end order. The returned slice is a precomputed table
// shared across calls — callers must not mutate it.
func (s *Subdomain) EndsTowards(remote int) []int {
	for i, r := range s.adjacent {
		if r == remote {
			return s.endsByAdj[i]
		}
	}
	return nil
}

// AdjacentParts returns the sorted set of remote parts this subdomain shares a
// DTLP with. The returned slice is precomputed and shared — callers must not
// mutate it.
func (s *Subdomain) AdjacentParts() []int {
	return s.adjacent
}

// Reset restores the subdomain to the paper's initial condition (5.6):
// zero potentials, zero currents, zero incoming waves.
func (s *Subdomain) Reset() {
	s.x.Zero()
	for k := range s.incoming {
		s.incoming[k] = 0
	}
	s.solves = 0
}

// Snapshot stores an in-memory copy of the subdomain's recovery state: the
// latest local solution and the latest incoming waves. The constant inputs —
// the local matrix, right-hand side and DTL endpoints — need no snapshot, and
// the factorisation is deliberately excluded: a crashed process loses it and
// Refactor rebuilds it from the cached matrix.
func (s *Subdomain) Snapshot() {
	if s.snapX == nil {
		s.snapX = sparse.NewVec(len(s.x))
		s.snapIncoming = make([]float64, len(s.incoming))
	}
	s.snapX.CopyFrom(s.x)
	copy(s.snapIncoming, s.incoming)
	s.hasSnap = true
}

// RestoreSnapshot rolls the solution and incoming waves back to the latest
// snapshot, or to the zero initial condition when none has been taken. The
// buffers are restored in place.
func (s *Subdomain) RestoreSnapshot() {
	if !s.hasSnap {
		s.x.Zero()
		for k := range s.incoming {
			s.incoming[k] = 0
		}
		return
	}
	s.x.CopyFrom(s.snapX)
	copy(s.incoming, s.snapIncoming)
}

// Refactor (re)builds the local solver from the kept local matrix under the
// subdomain's selection and cache. NewSubdomain factorises through it, and a
// crash-restarted subdomain calls it again because the factorisation held by
// the crashed process is lost; the rebuild is deterministic, so the
// restarted subdomain solves exactly as before.
func (s *Subdomain) Refactor() error {
	solver, err := s.cache.New(s.sel, s.localA)
	if err != nil {
		return fmt.Errorf("core: factorising local system of part %d: %w", s.part, err)
	}
	s.solver = solver
	s.spd = solver.Backend() != factor.DenseLU
	return nil
}
