package geom

import "math"

// grid buckets points into square cells of side h over their bounding box,
// so the Yao builder can search outward from a point in Chebyshev rings of
// cells instead of scanning every pair. The ids of cell (x, y) are
// ids[start[y*gx+x]:start[y*gx+x+1]], in increasing order, and xy holds
// their points in the same order, so a search reads memory in sequence; a
// row of cells is one contiguous run.
type grid struct {
	pts                    [][2]float64
	minX, minY, maxX, maxY float64
	h, inv                 float64 // cell side and 1/h; inv == 0 means one cell
	gx, gy                 int
	start, ids             []int
	xy                     [][2]float64
	// slack absorbs the rounding of cell assignment and of math.Hypot, so
	// every point beyond ring r is strictly farther than r*h - slack.
	slack float64
}

// newGrid buckets pts into about n/2 cells (two points per cell on uniform
// input). Coordinates must be finite. A point set with a zero or
// non-finite span, or fewer than eight points, gets a single cell, and every
// search degenerates to the all-pairs scan.
func newGrid(pts [][2]float64) *grid {
	g := &grid{pts: pts, gx: 1, gy: 1}
	if len(pts) > 0 {
		g.minX, g.minY = pts[0][0], pts[0][1]
		g.maxX, g.maxY = g.minX, g.minY
		for _, p := range pts[1:] {
			g.minX, g.maxX = min(g.minX, p[0]), max(g.maxX, p[0])
			g.minY, g.maxY = min(g.minY, p[1]), max(g.maxY, p[1])
		}
	}
	span := max(g.maxX-g.minX, g.maxY-g.minY)
	side := int(math.Sqrt(float64(len(pts)) / 2))
	if h := span / float64(side); side > 1 && h > 0 && 1/h <= math.MaxFloat64 && span <= math.MaxFloat64 {
		g.h, g.inv = h, 1/h
		g.gx = min(side, int((g.maxX-g.minX)*g.inv)+1)
		g.gy = min(side, int((g.maxY-g.minY)*g.inv)+1)
		scale := max(-g.minX, g.maxX, -g.minY, g.maxY)
		g.slack = 1e-12 * (scale + span)
	}
	cell := make([]int, len(pts))
	g.start = make([]int, g.gx*g.gy+1)
	for i, p := range pts {
		x, y := g.cellOf(p[0], p[1])
		cell[i] = y*g.gx + x
		g.start[cell[i]+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	next := append([]int(nil), g.start[:len(g.start)-1]...)
	g.ids = make([]int, len(pts))
	g.xy = make([][2]float64, len(pts))
	for i, c := range cell {
		g.ids[next[c]] = i
		g.xy[next[c]] = pts[i]
		next[c]++
	}
	return g
}

// cellOf returns the cell holding the point (x, y) of the bounding box.
// Rounding is monotone, so a point never lands on the far side of a cell
// boundary from one that is larger in both coordinates.
func (g *grid) cellOf(x, y float64) (int, int) {
	if g.inv == 0 {
		return 0, 0
	}
	cx := min(g.gx-1, max(0, int((x-g.minX)*g.inv)))
	cy := min(g.gy-1, max(0, int((y-g.minY)*g.inv)))
	return cx, cy
}

// lastRing is the ring around cell (cx, cy) that reaches the farthest cell.
func (g *grid) lastRing(cx, cy int) int {
	return max(cx, g.gx-1-cx, cy, g.gy-1-cy)
}

// ring appends to spans the ranges of ids covering the cells at Chebyshev
// distance exactly r from cell (cx, cy), clipped to the grid.
func (g *grid) ring(spans [][2]int, cx, cy, r int) [][2]int {
	run := func(y, x0, x1 int) {
		spans = append(spans, [2]int{g.start[y*g.gx+x0], g.start[y*g.gx+x1+1]})
	}
	if r == 0 {
		run(cy, cx, cx)
		return spans
	}
	x0, x1 := max(0, cx-r), min(g.gx-1, cx+r)
	if cy-r >= 0 {
		run(cy-r, x0, x1)
	}
	if cy+r < g.gy {
		run(cy+r, x0, x1)
	}
	for y := max(0, cy-r+1); y <= min(g.gy-1, cy+r-1); y++ {
		if cx-r >= 0 {
			run(y, cx-r, cx-r)
		}
		if cx+r < g.gx {
			run(y, cx+r, cx+r)
		}
	}
	return spans
}

// coneReach sets reach[c], for each cone of point p in cell (cx, cy), to a
// ring after which no point of that cone is left unvisited. Cone c spans the
// directions from rays[c] to rays[c+1] (to rays[0] for the last cone).
// The cone's wedge clipped to the bounding box is convex (the whole box when
// k = 1), so the cells it meets are spanned by the cells of its vertices: p,
// the box exits of its two boundary rays, and the box corners inside it. One
// extra ring covers the rounding of those vertices. Without this bound a
// point on the box edge whose outward cone is empty would scan every ring.
func (g *grid) coneReach(p [2]float64, cx, cy int, rays [][2]float64, reach []int) {
	last := g.lastRing(cx, cy)
	if last == 0 {
		clear(reach)
		return
	}
	ringOf := func(x, y float64) int {
		ax, ay := g.cellOf(x, y)
		return max(ax-cx, cx-ax, ay-cy, cy-ay)
	}
	k := len(rays)
	for c, ray := range rays {
		reach[c] = ringOf(g.exit(p, ray[0], ray[1]))
	}
	first := reach[0]
	for c := 0; c < k-1; c++ {
		reach[c] = max(reach[c], reach[c+1])
	}
	reach[k-1] = max(reach[k-1], first)
	for _, v := range [4][2]float64{{g.minX, g.minY}, {g.maxX, g.minY}, {g.minX, g.maxY}, {g.maxX, g.maxY}} {
		dx, dy := v[0]-p[0], v[1]-p[1]
		if dx == 0 && dy == 0 {
			continue
		}
		ang := math.Atan2(dy, dx)
		if ang < 0 {
			ang += 2 * math.Pi
		}
		// A corner on (or within rounding of) a cone boundary counts for
		// both cones.
		f := ang / (2 * math.Pi / float64(k))
		lo, hi := int(math.Floor(f-1e-9)), int(math.Floor(f+1e-9))
		d := ringOf(v[0], v[1])
		for c := lo; c <= hi; c++ {
			cc := (c%k + k) % k
			reach[cc] = max(reach[cc], d)
		}
	}
	for c := range reach {
		reach[c] = min(last, reach[c]+1)
	}
}

// exit returns where the ray from p (inside the bounding box) along the
// direction (dx, dy) leaves the box.
func (g *grid) exit(p [2]float64, dx, dy float64) (float64, float64) {
	t := math.Inf(1)
	if dx > 0 {
		t = (g.maxX - p[0]) / dx
	} else if dx < 0 {
		t = (g.minX - p[0]) / dx
	}
	if dy > 0 {
		t = min(t, (g.maxY-p[1])/dy)
	} else if dy < 0 {
		t = min(t, (g.minY-p[1])/dy)
	}
	x := min(g.maxX, max(g.minX, p[0]+t*dx))
	y := min(g.maxY, max(g.minY, p[1]+t*dy))
	return x, y
}
