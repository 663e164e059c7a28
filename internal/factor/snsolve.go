package factor

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sparse"
)

// Parallel and batched triangular solves of the supernodal factorisation.
// SolveTo never routes here: it always runs the sequential SolveSeqTo, which
// on the DTM block sizes beats the level schedule and spawns no goroutines.
// Both paths are explicit calls.
//
// Both are byte-identical to the sequential SolveSeqTo because every value of
// the solution is produced by the same floating-point operations in the same
// order:
//
//   - The level solve rewrites the forward sweep from scatter form (each
//     supernode pushes its contribution down to ancestor rows) to gather form
//     (each supernode pulls its descendants' contributions through the
//     retained symbolic update lists). Per solution row the subtractions
//     arrive in the identical order — ascending descendant, each descendant's
//     contribution pre-summed over its columns ascending — and gather form
//     makes same-level supernodes write-disjoint, so they parallelise without
//     locks. The backward sweep is write-disjoint as written and shares
//     backwardSupernode with SolveSeqTo.
//   - The batched solve replaces k scalar sweeps with one panel sweep whose
//     rectangular updates run through the packed rank-k kernels. The kernels
//     accumulate each output element over the shared dimension ascending —
//     the same chain the scalar sweep runs — so every right-hand side of the
//     panel gets the scalar solve's bytes.
const (
	// snLevelParMinWork is the per-level flop floor for spawning workers;
	// cheaper levels (the narrow top of the tree) run inline.
	snLevelParMinWork = 20000
	// snBatchMaxK caps the right-hand-side panel width per sweep; wider
	// batches run as several passes so the working panel and the packed
	// operands stay cache-resident.
	snBatchMaxK = 64
)

// snParScratch is the per-call scratch of the level-scheduled solve: the
// permuted working vector plus one gather buffer per worker slot (workers
// never share a gather buffer, so the backward sweep races on nothing).
type snParScratch struct {
	w sparse.Vec
	g [][]float64
}

// snBatchScratch is the per-batch scratch of SolveBatchTo, acquired once per
// panel sweep rather than once per right-hand side: the row-major n×kp
// working panel, the pivot-row buffer, and the packed-operand/accumulator
// buffers of the rank-k kernels.
type snBatchScratch struct {
	w    []float64 // working panel, row-major n×kp
	vbuf []float64 // solved pivot row of the diagonal-block sweep (kp values)
	ab   []float64 // packed left operand, one forward row chunk
	bb   []float64 // packed right operand (forward: Yᵀ, backward: Gᵀ)
	ta   []float64 // packed L21ᵀ (backward left operand)
	cb   []float64 // kernel accumulation chunk
}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// SolveLevelTo solves A·x = b into x with the level-scheduled parallel
// substitution: supernodes of one elimination-tree level share no
// ancestor/descendant relation, so the forward sweep dispatches each level's
// supernodes (gather form) across goroutines behind a per-level barrier,
// ascending; the backward sweep does the same descending. Results are
// byte-identical to SolveSeqTo at every GOMAXPROCS — the dispatch changes
// which goroutine runs a supernode, never the operations it runs. x may alias
// b; the call is reentrant like SolveSeqTo.
func (s *Supernodal) SolveLevelTo(x, b sparse.Vec) {
	n := s.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("factor: supernodal solve dimension mismatch n=%d len(b)=%d len(x)=%d", n, len(b), len(x)))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > snMaxWorkers {
		workers = snMaxWorkers
	}
	if workers < 1 {
		workers = 1
	}
	ps := s.lscratch.Get().(*snParScratch)
	w := ps.w
	if s.perm != nil {
		for i, old := range s.perm {
			w[i] = b[old]
		}
	} else {
		copy(w, b)
	}

	nlev := len(s.levPtr) - 1
	gFor := func(slot int) []float64 {
		for len(ps.g) <= slot {
			ps.g = append(ps.g, make([]float64, s.maxLd))
		}
		return ps.g[slot]
	}
	// Forward: levels ascending, gather form.
	for l := 0; l < nlev; l++ {
		list := s.levList[s.levPtr[l]:s.levPtr[l+1]]
		if workers == 1 || len(list) < 2 || s.levWork[l] < snLevelParMinWork {
			for _, sn := range list {
				s.forwardSupernodeGather(int(sn), w)
			}
			continue
		}
		s.runLevel(list, workers, func(sub []int32, _ int) {
			for _, sn := range sub {
				s.forwardSupernodeGather(int(sn), w)
			}
		})
	}
	if s.mode == ModeLDLT {
		for j := 0; j < n; j++ {
			w[j] /= s.d[j]
		}
	}
	// Backward: levels descending. Each supernode needs a private gather
	// buffer; chunk slots index into the per-call buffer set.
	for l := nlev - 1; l >= 0; l-- {
		list := s.levList[s.levPtr[l]:s.levPtr[l+1]]
		if workers == 1 || len(list) < 2 || s.levWork[l] < snLevelParMinWork {
			g := gFor(0)
			for _, sn := range list {
				s.backwardSupernode(int(sn), w, g)
			}
			continue
		}
		// Pre-grow the buffer set before spawning (gFor appends are not
		// goroutine-safe).
		nw := workers
		if nw > len(list) {
			nw = len(list)
		}
		gFor(nw - 1)
		s.runLevel(list, workers, func(sub []int32, slot int) {
			g := ps.g[slot]
			for _, sn := range sub {
				s.backwardSupernode(int(sn), w, g)
			}
		})
	}
	if s.perm != nil {
		for i, old := range s.perm {
			x[old] = w[i]
		}
	} else {
		copy(x, w)
	}
	s.lscratch.Put(ps)
}

// runLevel splits one level's supernode list into contiguous chunks and runs
// them concurrently, waiting for the whole level before returning (the
// barrier the next level's dependencies need). The chunk a supernode lands in
// affects only which goroutine executes it.
func (s *Supernodal) runLevel(list []int32, workers int, run func(sub []int32, slot int)) {
	nw := workers
	if nw > len(list) {
		nw = len(list)
	}
	chunk := (len(list) + nw - 1) / nw
	var wg sync.WaitGroup
	slot := 0
	for c0 := 0; c0 < len(list); c0 += chunk {
		c1 := c0 + chunk
		if c1 > len(list) {
			c1 = len(list)
		}
		wg.Add(1)
		go func(sub []int32, slot int) {
			defer wg.Done()
			run(sub, slot)
		}(list[c0:c1], slot)
		slot++
	}
	wg.Wait()
}

// forwardSupernodeGather runs supernode sn's slice of the forward sweep
// L y = P b in gather (left-looking) form: pull every descendant
// contribution through the retained update lists — ascending descendant
// order, each contribution pre-summed over the descendant's columns ascending
// with the same zero-skip as the scatter form, so the bytes match
// SolveSeqTo's — then the dense (unit-)lower solve on the diagonal block.
// Writes land only in w[f:f+width]: the update windows [lo,hi) cover exactly
// the descendant rows inside this supernode's columns.
func (s *Supernodal) forwardSupernodeGather(sn int, w sparse.Vec) {
	f := int(s.sfirst[sn])
	width := int(s.sfirst[sn+1]) - f
	ld := int(s.rx[sn+1] - s.rx[sn])
	panel := s.panel[s.px[sn]:s.px[sn+1]]
	unit := s.mode == ModeLDLT
	for _, u := range s.upd[sn] {
		d := int(u.d)
		fd := int(s.sfirst[d])
		wd := int(s.sfirst[d+1]) - fd
		ldd := int(s.rx[d+1] - s.rx[d])
		dpanel := s.panel[s.px[d]:s.px[d+1]]
		drows := s.rowind[s.rx[d]:s.rx[d+1]]
		for t := int(u.lo); t < int(u.hi); t++ {
			sum := 0.0
			for jj := 0; jj < wd; jj++ {
				v := w[fd+jj]
				if v == 0 {
					continue
				}
				sum += dpanel[jj*ldd+t] * v
			}
			w[drows[t]] -= sum
		}
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
	}
}

// SolveBatchTo solves A·X[r] = B[r] for every right-hand side of the batch by
// sweeping the whole panel through the factor once per supernode instead of
// once per RHS: the diagonal-block solves run across the panel row-wise, and
// the rectangular updates become rank-width panel products through the packed
// 4×4 kernels (one operand pack per supernode, amortised over the batch). The
// scratch panel is acquired once per batch. Every X[r] carries exactly the
// bytes SolveSeqTo(X[r], B[r]) would produce; batches wider than snBatchMaxK
// run as several passes. X[r] may alias B[r]; the call is reentrant.
func (s *Supernodal) SolveBatchTo(X, B []sparse.Vec) {
	batchValidate("supernodal", s.n, X, B)
	if len(B) == 0 {
		return
	}
	if len(B) == 1 {
		s.SolveSeqTo(X[0], B[0])
		return
	}
	for r0 := 0; r0 < len(B); r0 += snBatchMaxK {
		r1 := r0 + snBatchMaxK
		if r1 > len(B) {
			r1 = len(B)
		}
		s.solvePanel(X[r0:r1], B[r0:r1])
	}
}

// solvePanel is one pass of SolveBatchTo: kp ≤ snBatchMaxK right-hand sides
// as a row-major n×kp working panel.
func (s *Supernodal) solvePanel(X, B []sparse.Vec) {
	n, kp := s.n, len(B)
	sc := s.bscratch.Get().(*snBatchScratch)
	mld := s.maxLd
	if mld < snMaxWidth {
		mld = snMaxWidth
	}
	w := growFloats(&sc.w, n*kp)
	vb := growFloats(&sc.vbuf, kp)
	ab := growFloats(&sc.ab, snChunkRows*snMaxWidth)
	bb := growFloats(&sc.bb, snBatchMaxK*mld)
	ta := growFloats(&sc.ta, snMaxWidth*mld)
	cb := growFloats(&sc.cb, snChunkRows*snBatchMaxK)

	batchPanelIn(w, B, s.perm, n)
	unit := s.mode == ModeLDLT

	// Forward: L Y = P B. Diagonal-block solve across the panel, then the
	// rectangular update as one rank-width product per row chunk.
	for sn := 0; sn < s.ns; sn++ {
		f := int(s.sfirst[sn])
		width := int(s.sfirst[sn+1]) - f
		ld := int(s.rx[sn+1] - s.rx[sn])
		panel := s.panel[s.px[sn]:s.px[sn+1]]
		rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
		for jj := 0; jj < width; jj++ {
			col := panel[jj*ld:]
			base := w[(f+jj)*kp : (f+jj)*kp+kp]
			if !unit {
				piv := col[jj]
				for r, v := range base {
					v /= piv
					base[r] = v
					vb[r] = v
				}
			} else {
				copy(vb, base)
			}
			// The scalar sweep skips a zero pivot value entirely; mirror that
			// per panel element, but hoist the zero scan out of the column
			// loop — pivot rows without zeros (the common case) run the tight
			// unguarded loop, which only differs from the guarded one by the
			// subtractions the guard would skip.
			anyZero := false
			for _, v := range vb {
				if v == 0 {
					anyZero = true
					break
				}
			}
			if anyZero {
				for i := jj + 1; i < width; i++ {
					lij := col[i]
					dst := w[(f+i)*kp : (f+i)*kp+kp]
					for r, v := range vb {
						if v != 0 {
							dst[r] -= lij * v
						}
					}
				}
			} else {
				for i := jj + 1; i < width; i++ {
					lij := col[i]
					dst := w[(f+i)*kp : (f+i)*kp+kp]
					for r, v := range vb {
						dst[r] -= lij * v
					}
				}
			}
		}
		m := ld - width
		if m == 0 {
			continue
		}
		// Left operand: Yᵀ — the solved rows of this supernode, read as a
		// column-major kp×width block of the working panel. Keeping Y on the
		// kernel's A side makes the product land row-major per destination row
		// (ldc = kp4), so the scatter-subtract below runs contiguous in both
		// the chunk and the panel.
		kp4 := (kp + 3) &^ 3
		packPanels(bb, w[f*kp:], kp, 0, kp, width, nil)
		for ii := 0; ii < m; ii += snChunkRows {
			mc := m - ii
			if mc > snChunkRows {
				mc = snChunkRows
			}
			packPanels(ab, panel, ld, width+ii, mc, width, nil)
			gemmPacked(cb, kp4, bb, kp, ab, mc, width)
			for i := 0; i < mc; i++ {
				dst := w[int(rows[width+ii+i])*kp : int(rows[width+ii+i])*kp+kp]
				src := cb[i*kp4 : i*kp4+kp]
				for r, v := range src {
					dst[r] -= v
				}
			}
		}
	}
	if unit {
		for j := 0; j < n; j++ {
			dj := s.d[j]
			dst := w[j*kp : j*kp+kp]
			for r := range dst {
				dst[r] /= dj
			}
		}
	}
	// Backward: Lᵀ Z = Y, supernodes descending. The rectangular contribution
	// is one width×kp product L21ᵀ·G (G gathered from the ancestor rows of
	// the panel), subtracted before the dense triangular solve — the same
	// split, and the same ascending-row accumulation per element, as
	// backwardSupernode.
	for sn := s.ns - 1; sn >= 0; sn-- {
		f := int(s.sfirst[sn])
		width := int(s.sfirst[sn+1]) - f
		ld := int(s.rx[sn+1] - s.rx[sn])
		panel := s.panel[s.px[sn]:s.px[sn+1]]
		rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
		m := ld - width
		if m > 0 {
			kp4 := (kp + 3) &^ 3
			packPanelsT(ta, panel, ld, width, width, m)
			packPanelsGather(bb, w, kp, rows[width:], m)
			// G on the A side: the product lands row-major per supernode
			// column (ldc = kp4), so the subtraction is contiguous.
			gemmPacked(cb, kp4, bb, kp, ta, width, m)
			for t := 0; t < width; t++ {
				dst := w[(f+t)*kp : (f+t)*kp+kp]
				src := cb[t*kp4 : t*kp4+kp]
				for r, v := range src {
					dst[r] -= v
				}
			}
		}
		for jj := width - 1; jj >= 0; jj-- {
			col := panel[jj*ld:]
			base := w[(f+jj)*kp : (f+jj)*kp+kp]
			for i := jj + 1; i < width; i++ {
				lij := col[i]
				src := w[(f+i)*kp:]
				for r := range base {
					base[r] -= lij * src[r]
				}
			}
			if !unit {
				piv := col[jj]
				for r := range base {
					base[r] /= piv
				}
			}
		}
	}
	batchPanelOut(w, X, s.perm, n)
	s.bscratch.Put(sc)
}
