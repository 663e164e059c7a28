package geom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refYaoPicks is the all-pairs definition of the Yao picks and the
// differential oracle of the grid search: for every point, scan every other
// point in index order and keep the first nearest one per cone.
func refYaoPicks(pts [][2]float64, k int) [][]int {
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

// refYaoEdges is the greedy definition of the connectivity patch, the oracle
// of the Borůvka rounds: while more than one component remains, link the
// closest inter-component pair, ties toward the smaller (i, j).
func refYaoEdges(pts [][2]float64, k int) [][2]int {
	n := len(pts)
	var links [][2]int
	adj := make([][]int, n)
	link := func(i, j int) {
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
		links = append(links, [2]int{i, j})
	}
	for i, ps := range refYaoPicks(pts, k) {
		for _, j := range ps {
			link(i, j)
		}
	}
	comp, count := components(n, links)
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

// lattice draws n points from a side×side integer lattice scaled by step:
// duplicates give exact distance ties and zero vectors, and lattice
// directions fall exactly on the cone boundaries of k = 1, 2, 4 and 8.
func lattice(rng *rand.Rand, n, side int, step float64) [][2]float64 {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{float64(rng.Intn(side)) * step, float64(rng.Intn(side)) * step}
	}
	return pts
}

// pointSets returns the named point families of the differential tests.
func pointSets(n int, seed int64) map[string][][2]float64 {
	rng := rand.New(rand.NewSource(seed))
	collinear := make([][2]float64, n)
	diagonal := make([][2]float64, n)
	same := make([][2]float64, n)
	for i := range collinear {
		collinear[i] = [2]float64{rng.Float64(), 0.25}
		t := float64(rng.Intn(n + 1))
		diagonal[i] = [2]float64{t, 2 * t}
		same[i] = [2]float64{0.5, -3}
	}
	return map[string][][2]float64{
		"random":    UnitSquare(rng, n),
		"lattice":   lattice(rng, n, max(2, int(math.Sqrt(float64(n)))), 1),
		"coarse":    lattice(rng, n, 3, 0.1),
		"offset":    lattice(rng, n, 7, 1e3),
		"collinear": collinear,
		"diagonal":  diagonal,
		"identical": same,
	}
}

// TestYaoPicksMatchesReference checks the grid search against the all-pairs
// oracle, pick for pick, over sizes around the single-cell cut-over, cone
// counts from 1 to 64 and point sets with exact ties, boundary angles,
// duplicates and a zero-width bounding box.
func TestYaoPicksMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 100, 1000} {
		for name, pts := range pointSets(n, int64(n)+1) {
			for _, k := range []int{1, 2, 3, 4, 6, 8, 64} {
				if got, want := YaoPicks(pts, k), refYaoPicks(pts, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d %s k=%d: picks differ from the all-pairs reference at %s",
						n, name, k, firstDiff(got, want))
				}
			}
		}
	}
}

// TestYaoPicksMatchesReferenceSeeds repeats the random-point comparison at
// the sizes the problem sources build, over several seeds.
func TestYaoPicksMatchesReferenceSeeds(t *testing.T) {
	sizes := []int{16, 289, 4000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			pts := UnitSquare(rand.New(rand.NewSource(seed)), n)
			for _, k := range []int{1, 4, 6} {
				if got, want := YaoPicks(pts, k), refYaoPicks(pts, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d seed=%d k=%d: picks differ at %s", n, seed, k, firstDiff(got, want))
				}
			}
		}
	}
}

// TestYaoEdgesMatchesReference checks the Borůvka patch against the greedy
// closest-pair patch on inputs that need many links: k = 1 forests, k = 2,
// and clustered lattices.
func TestYaoEdgesMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 100, 400} {
		for name, pts := range pointSets(n, int64(n)+7) {
			for _, k := range []int{1, 2, 3, 6} {
				if got, want := YaoEdges(pts, k), refYaoEdges(pts, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d %s k=%d: %d edges, reference has %d", n, name, k, len(got), len(want))
				}
			}
		}
	}
}

func firstDiff(got, want [][]int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("point %d: %v vs %v", i, got[i], want[i])
		}
	}
	return "no point"
}

// FuzzYaoPicks decodes a cone count and up to 200 points from the input and
// compares the grid search, and the patched edge list, with the all-pairs
// references. Byte 0 picks k in [1, 64], byte 1 a coordinate scale; each
// further 4 bytes are two int16 coordinates, so small lattices with
// duplicates and boundary angles are easy to reach.
func FuzzYaoPicks(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{7, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{63, 2, 255, 255, 0, 128, 0, 128, 255, 127, 1, 0, 0, 1, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%64
		scale := []float64{1, 1.0 / 256, 1e-3, 1e6}[data[1]%4]
		data = data[2:]
		var pts [][2]float64
		for len(data) >= 4 && len(pts) < 200 {
			x := int16(binary.LittleEndian.Uint16(data))
			y := int16(binary.LittleEndian.Uint16(data[2:]))
			pts = append(pts, [2]float64{float64(x) * scale, float64(y) * scale})
			data = data[4:]
		}
		if got, want := YaoPicks(pts, k), refYaoPicks(pts, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d n=%d: picks differ at %s", k, len(pts), firstDiff(got, want))
		}
		if got, want := YaoEdges(pts, k), refYaoEdges(pts, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d n=%d: %d edges, reference has %d", k, len(pts), len(got), len(want))
		}
	})
}

// TestYaoEdges checks the builder's contract on a well-connected (k=6) and a
// patched (k=1, a nearest-neighbour forest) configuration: every pick is an
// edge, the list is strictly increasing {i < j}, and the graph is connected.
func TestYaoEdges(t *testing.T) {
	for _, k := range []int{1, 6} {
		pts := UnitSquare(rand.New(rand.NewSource(5)), 120)
		edges := YaoEdges(pts, k)
		has := map[[2]int]bool{}
		for x, e := range edges {
			if e[0] >= e[1] || (x > 0 && !(edges[x-1][0] < e[0] || edges[x-1][0] == e[0] && edges[x-1][1] < e[1])) {
				t.Fatalf("k=%d: edge %d %v out of order", k, x, e)
			}
			has[e] = true
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
		if _, count := components(len(pts), edges); count != 1 {
			t.Fatalf("k=%d: %d components after patching", k, count)
		}
		if k == 1 && len(edges) != len(pts)-1 {
			t.Fatalf("k=1: %d edges, want the %d of a spanning tree", len(edges), len(pts)-1)
		}
	}
}

// BenchmarkYaoEdges times the whole Yao build (grid, picks and connectivity
// patch) on uniform points: k = 6 as the spanner problems use it, and k = 1,
// whose nearest-neighbour forest needs about n/3 patch links.
func BenchmarkYaoEdges(b *testing.B) {
	for _, tc := range []struct{ k, n int }{
		{6, 1000}, {6, 4000}, {6, 16000}, {6, 100000}, {1, 4000},
	} {
		pts := UnitSquare(rand.New(rand.NewSource(1)), tc.n)
		b.Run(fmt.Sprintf("k=%d/n=%d", tc.k, tc.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				YaoEdges(pts, tc.k)
			}
		})
	}
}
