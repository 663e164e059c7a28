// Package geom is the planar geometry shared by the Yao-spanner problem
// sources (internal/sparse) and the Yao-graph machine fabrics
// (internal/topology): seeded random points in the unit square and the
// k-cone nearest-neighbour Yao graph over them (Funke et al.,
// arXiv:2303.07858; bounded-degree Yao-Yao variants in Damian,
// arXiv:0802.4325). One builder serves both, so a spanner problem and the
// matching spanner fabric are provably the same graph. The builder searches
// a uniform bucket grid ring by ring instead of scanning all pairs, so a
// build on uniform points costs O(n log n) (the log from sorting the edge
// list), and it returns exactly the graph the all-pairs definition gives.
package geom

import (
	"math"
	"math/rand"
	"slices"
)

// UnitSquare places n points uniformly in the unit square, drawn in order
// from one sequential seeded stream (byte-deterministic at every
// GOMAXPROCS; the caller may keep drawing from rng afterwards).
func UnitSquare(rng *rand.Rand, n int) [][2]float64 {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	return pts
}

// Dist returns the Euclidean distance between points i and j.
func Dist(pts [][2]float64, i, j int) float64 {
	return math.Hypot(pts[j][0]-pts[i][0], pts[j][1]-pts[i][1])
}

// YaoPicks returns each point's directed Yao picks: the nearest other point
// within each of the k angular cones [2πc/k, 2π(c+1)/k), ties broken toward
// the smaller index. Every point has at most k picks, in cone order.
// Coordinates must be finite.
//
// The search buckets the points into a uniform grid and visits Chebyshev
// rings of cells outward from each point until every cone is settled: its
// best distance beats every unvisited cell, or the rings already cover the
// cone's wedge inside the bounding box. On uniform points that is O(n) cells
// in all, so n = 10⁵ builds in well under a second. The cone and distance of
// a pair are computed exactly as an all-pairs scan would (Atan2, Hypot), and
// ties are decided on (distance, index), so the picks do not depend on the
// visiting order.
func YaoPicks(pts [][2]float64, k int) [][]int {
	return newGrid(pts).picks(k)
}

func (g *grid) picks(k int) [][]int {
	picks := make([][]int, len(g.pts))
	best := make([]int, k)
	bestD := make([]float64, k)
	reach := make([]int, k)
	width := 2 * math.Pi / float64(k)
	rays := make([][2]float64, k) // unit vectors of the cone boundaries
	for c := range rays {
		sin, cos := math.Sincos(float64(c) * width)
		rays[c] = [2]float64{cos, sin}
	}
	var spans [][2]int
	for i, p := range g.pts {
		for c := range best {
			best[c], bestD[c] = -1, math.Inf(1)
		}
		cx, cy := g.cellOf(p[0], p[1])
		g.coneReach(p, cx, cy, rays, reach)
		// Only open cones can still change, so a candidate farther than
		// every open cone's best needs no Atan2.
		lim := math.Inf(1)
		for r, open := 0, k; open > 0; r++ {
			spans = g.ring(spans[:0], cx, cy, r)
			for _, s := range spans {
				for t := s[0]; t < s[1]; t++ {
					j := g.ids[t]
					dx := g.xy[t][0] - p[0]
					dy := g.xy[t][1] - p[1]
					d := math.Hypot(dx, dy)
					if d > lim || j == i {
						continue
					}
					ang := math.Atan2(dy, dx)
					if ang < 0 {
						ang += 2 * math.Pi
					}
					c := int(ang / width)
					if c >= k { // ang == 2π after rounding
						c = k - 1
					}
					if d < bestD[c] || d == bestD[c] && j < best[c] {
						bestD[c] = d
						best[c] = j
					}
				}
			}
			bound := float64(r)*g.h - g.slack
			open, lim = 0, 0
			for c := range reach {
				if r < reach[c] && !(bestD[c] < bound) {
					open++
					lim = max(lim, bestD[c])
				}
			}
		}
		for c := range best {
			if best[c] >= 0 {
				picks[i] = append(picks[i], best[c])
			}
		}
	}
	return picks
}

// YaoEdges returns the undirected Yao graph over pts with k cones as the
// edge list {i < j} in lexicographic order: the symmetrised picks plus the
// links that make it connected. The links are the ones a greedy patch
// would add by repeatedly joining the closest inter-component pair (ties
// toward smaller indices): Kruskal's spanning forest of the components under
// the total order (distance, i, j), which is unique, found here in Borůvka
// rounds. On random points with k ≥ 4 the Yao graph is almost always
// connected already; the patching only guards degenerate seeds and small k,
// deterministically.
func YaoEdges(pts [][2]float64, k int) [][2]int {
	g := newGrid(pts)
	var edges [][2]int
	for i, ps := range g.picks(k) {
		for _, j := range ps {
			edges = append(edges, [2]int{min(i, j), max(i, j)})
		}
	}
	for comp, count := components(len(pts), edges); count > 1; comp, count = components(len(pts), edges) {
		edges = append(edges, g.cheapestLinks(comp, count)...)
	}
	slices.SortFunc(edges, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return slices.Compact(edges)
}

// pair is a candidate link {i < j} at distance d.
type pair struct {
	d    float64
	i, j int
}

// less orders pairs by (d, i, j).
func (a pair) less(b pair) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// cheapestLinks returns one Borůvka round over the labelling comp with count
// components: each component's least link to another component under
// pair.less, each link once. Every point searches rings outward for points
// of other components, and stops once its component already holds a link
// shorter than anything unvisited.
func (g *grid) cheapestLinks(comp []int, count int) [][2]int {
	cut := make([]pair, count)
	for c := range cut {
		cut[c] = pair{math.Inf(1), -1, -1}
	}
	var spans [][2]int
	for i, p := range g.pts {
		cx, cy := g.cellOf(p[0], p[1])
		best := &cut[comp[i]]
		for r := 0; r <= g.lastRing(cx, cy) && !(float64(r-1)*g.h-g.slack > best.d); r++ {
			spans = g.ring(spans[:0], cx, cy, r)
			for _, s := range spans {
				for t := s[0]; t < s[1]; t++ {
					j := g.ids[t]
					if comp[j] == comp[i] {
						continue
					}
					e := pair{math.Hypot(g.xy[t][0]-p[0], g.xy[t][1]-p[1]), min(i, j), max(i, j)}
					if e.less(*best) {
						*best = e
					}
				}
			}
		}
	}
	var links [][2]int
	for c, e := range cut {
		// A link chosen by both of its components is kept once, by the
		// smaller label.
		if other := comp[e.i] + comp[e.j] - c; other > c || cut[other] != e {
			links = append(links, [2]int{e.i, e.j})
		}
	}
	return links
}

// components labels the connected components of the graph on n vertices
// with the given edges, 0 to count-1 in order of each component's smallest
// vertex, and returns (labels, count).
func components(n int, edges [][2]int) ([]int, int) {
	root := make([]int, n)
	for v := range root {
		root[v] = v
	}
	find := func(v int) int {
		for root[v] != v {
			root[v] = root[root[v]]
			v = root[v]
		}
		return v
	}
	for _, e := range edges {
		root[find(e[0])] = find(e[1])
	}
	comp, label, count := make([]int, n), make([]int, n), 0
	for v := range comp {
		r := find(v)
		if label[r] == 0 {
			count++
			label[r] = count
		}
		comp[v] = label[r] - 1
	}
	return comp, count
}
