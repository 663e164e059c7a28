package geom

import (
	"math/rand"
	"testing"
)

// TestYaoEdges checks the builder's contract on a well-connected (k=6) and a
// patched (k=1, a nearest-neighbour forest) configuration: every pick is an
// edge, the list is strictly increasing {i < j}, and the graph is connected.
func TestYaoEdges(t *testing.T) {
	for _, k := range []int{1, 6} {
		pts := UnitSquare(rand.New(rand.NewSource(5)), 120)
		edges := YaoEdges(pts, k)
		has := map[[2]int]bool{}
		adj := make([][]int, len(pts))
		for x, e := range edges {
			if e[0] >= e[1] || (x > 0 && !(edges[x-1][0] < e[0] || edges[x-1][0] == e[0] && edges[x-1][1] < e[1])) {
				t.Fatalf("k=%d: edge %d %v out of order", k, x, e)
			}
			has[e] = true
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		for i, ps := range YaoPicks(pts, k) {
			if len(ps) > k {
				t.Fatalf("k=%d: node %d has %d picks", k, i, len(ps))
			}
			for _, j := range ps {
				if !has[[2]int{min(i, j), max(i, j)}] {
					t.Fatalf("k=%d: pick %d→%d is not an edge", k, i, j)
				}
			}
		}
		if _, count := components(adj); count != 1 {
			t.Fatalf("k=%d: %d components after patching", k, count)
		}
		if k == 1 && len(edges) != len(pts)-1 {
			t.Fatalf("k=1: %d edges, want the %d of a spanning tree", len(edges), len(pts)-1)
		}
	}
}
