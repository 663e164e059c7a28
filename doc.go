// Package repro is a from-scratch Go reproduction of "Directed Transmission
// Method, a fully asynchronous approach to solve sparse linear systems in
// parallel" (Fei Wei & Huazhong Yang, ACM SPAA 2008).
//
// The library lives under internal/ (see DESIGN.md for the full inventory):
//
//   - internal/sparse, internal/dense, internal/spectral — the numerical
//     substrate (CSR matrices, MatrixMarket I/O, Cholesky/LU/eigen,
//     definiteness certification) plus the problem-source registry: one
//     canonical spec-string grammar (sparse.ParseSource) naming every way a
//     system enters the repo — generated grids ("grid:", "saddle:"), random
//     geometric Yao-spanner Laplacians ("spanner:") and content-hash-pinned
//     MatrixMarket files ("mm:<path>@<fnv64>", verified on every build and
//     refused on mismatch with a typed error);
//   - internal/factor — the pluggable local-factorisation subsystem: one
//     LocalSolver interface over the fixed backends dense-cholesky,
//     dense-lu, sparse-cholesky and sparse-ldlt (up-looking factorisations
//     with per-block ND/RCM/AMD fill-reducing orderings) and sparse-supernodal
//     (blocked trapezoidal panels over the postordered elimination tree,
//     with independent subtrees factorised in parallel, deterministically),
//     plus the auto policy every subdomain and block solver uses, whose
//     non-SPD fallback chain is sparse-Cholesky → sparse-LDLᵀ → dense LU. A
//     factorisation is configured by one per-call selection string, backend
//     plus optional ordering ("sparse-supernodal,order=nd",
//     factor.ParseSelection), never by package state.
//     Solves are built for factor-once/solve-many: every sparse backend
//     sweeps k right-hand sides as one batched panel (SolveBatchTo,
//     byte-identical per RHS to k scalar sweeps; the supernodal panels run
//     the packed rank-k kernels — an AVX microkernel on amd64), the
//     supernodal backend can level-schedule a single large triangular solve
//     across elimination-tree level sets (SolveLevelTo; SolveTo always runs
//     the register-blocked sequential sweep), and a concurrency-safe LRU factor
//     cache (pattern+values keyed, byte-budgeted), held by its owner — the
//     dtmd worker across sessions, dtmsolve's direct path — serves repeated
//     factorisations;
//   - internal/graph, internal/partition — the electric graph of a symmetric
//     system and its Electric Vertex Splitting (wire tearing);
//   - internal/dtl, internal/topology, internal/netsim — directed transmission
//     lines, heterogeneous machines (behind the machine registry
//     topology.ParseTopology: uniform, ring, the paper's mesh4x4/mesh8x8,
//     and random geometric "yao:" fabrics), and the discrete-event network
//     simulator;
//   - internal/chaos — the deterministic fault-injection model: a parsed
//     fault spec (drop/duplicate/jitter probabilities, link-down and
//     slow-link windows, crash-restart schedules) and the seeded per-link
//     controller that assigns every send a reproducible fate;
//   - internal/core — the DTM solver itself behind the context-first
//     core.Solve(ctx, p, cfg) entry point, whose Config selects the engine:
//     the asynchronous DES engine (default), the live goroutine engine (the
//     DES engine's per-part node driven by real goroutines and timers), the
//     synchronous VTM special case and the mixed GALS variant; including the
//     recovery protocol the asynchronous engines share under injected
//     faults: sequence numbers with last-writer-wins dedup, watchdog
//     retransmission with backoff, and crash-restart from periodic snapshots;
//   - internal/transport — the datagram fabric distributed DTM runs on: an
//     in-process channel implementation and a length-prefixed binary TCP
//     implementation with reconnect backoff, under one conformance-tested
//     Transport interface, plus the chaos fault decorator;
//   - internal/dist — coordinator/worker distributed DTM over a Transport:
//     deterministic re-tearing from a versioned ProblemSpec (legacy grid
//     fields or a v2 {source, nparts, topology} registry spec), sharded
//     subdomain
//     ownership, watchdog retransmission and the distributed stopping rule,
//     plus worker failover: heartbeats carrying wave frontiers and boundary
//     snapshots, jittered coordinator leases, rendezvous-hashed ownership
//     reassignment under fenced epochs (stale-epoch and dead-incarnation
//     packets are dropped and counted), snapshot-seeded adoption by the
//     survivors, and rejoin of restarted workers at a higher incarnation;
//   - internal/iterative — the classical baselines (CG, Jacobi, Gauss–Seidel,
//     SOR, synchronous and asynchronous block-Jacobi);
//   - internal/experiments — one entry point per figure/table of the paper's
//     evaluation plus the comparisons and ablations of DESIGN.md.
//
// The executables cmd/dtmsolve, cmd/dtmbench, cmd/dtmgen and cmd/dtmd (the
// distributed DTM server) and the programs under examples/ exercise the same
// packages; bench_test.go at the module root regenerates every experiment as
// a testing.B benchmark.
package repro
