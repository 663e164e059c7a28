// Package geom is the planar geometry shared by the Yao-spanner problem
// sources (internal/sparse) and the Yao-graph machine fabrics
// (internal/topology): seeded random points in the unit square and the
// k-cone nearest-neighbour Yao graph over them (Funke et al.,
// arXiv:2303.07858; bounded-degree Yao-Yao variants in Damian,
// arXiv:0802.4325). One builder serves both, so a spanner problem and the
// matching spanner fabric are provably the same graph.
package geom

import (
	"math"
	"math/rand"
	"sort"
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
// the smaller index. Every point has at most k picks. O(n²).
func YaoPicks(pts [][2]float64, k int) [][]int {
	n := len(pts)
	picks := make([][]int, n)
	for i := 0; i < n; i++ {
		best := make([]int, k)
		bestD := make([]float64, k)
		for c := 0; c < k; c++ {
			best[c] = -1
			bestD[c] = math.Inf(1)
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := pts[j][0] - pts[i][0]
			dy := pts[j][1] - pts[i][1]
			ang := math.Atan2(dy, dx)
			if ang < 0 {
				ang += 2 * math.Pi
			}
			c := int(ang / (2 * math.Pi / float64(k)))
			if c >= k { // ang == 2π after rounding
				c = k - 1
			}
			if d := math.Hypot(dx, dy); d < bestD[c] {
				bestD[c] = d
				best[c] = j
			}
		}
		for c := 0; c < k; c++ {
			if best[c] >= 0 {
				picks[i] = append(picks[i], best[c])
			}
		}
	}
	return picks
}

// YaoEdges returns the undirected Yao graph over pts with k cones as the
// edge list {i < j} in lexicographic order: the symmetrised picks plus the
// patches that make it connected. While more than one component remains,
// the closest inter-component pair (ties toward smaller indices) is linked.
// On random points with k ≥ 4 the Yao graph is almost always connected
// already; the patching only guards degenerate seeds, deterministically.
func YaoEdges(pts [][2]float64, k int) [][2]int {
	n := len(pts)
	adj := make([][]int, n)
	link := func(i, j int) {
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	for i, ps := range YaoPicks(pts, k) {
		for _, j := range ps {
			link(i, j)
		}
	}
	comp, count := components(adj)
	for count > 1 {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if comp[i] == comp[j] {
					continue
				}
				if d := Dist(pts, i, j); d < bd {
					bd, bi, bj = d, i, j
				}
			}
		}
		link(bi, bj)
		old, now := comp[bj], comp[bi]
		for v := range comp {
			if comp[v] == old {
				comp[v] = now
			}
		}
		count--
	}
	var edges [][2]int
	for i, js := range adj {
		sort.Ints(js)
		for t, j := range js {
			if j > i && (t == 0 || js[t-1] != j) {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return edges
}

// components labels the connected components of the undirected graph adj
// (breadth first from the smallest unlabelled vertex) and returns (labels,
// count).
func components(adj [][]int) ([]int, int) {
	comp := make([]int, len(adj))
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	for s := range adj {
		if comp[s] >= 0 {
			continue
		}
		queue := []int{s}
		comp[s] = count
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if comp[w] < 0 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}
