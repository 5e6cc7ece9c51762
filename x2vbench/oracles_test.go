package main

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/wl"
)

func cycle(n int) *egraph {
	g := &egraph{n: n}
	for i := 0; i < n; i++ {
		g.edges = append(g.edges, pair(i, (i+1)%n))
	}
	return g
}

func complete(n int) *egraph {
	g := &egraph{n: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.edges = append(g.edges, [2]int{u, v})
		}
	}
	return g
}

func path(n int) *egraph {
	g := &egraph{n: n}
	for i := 0; i+1 < n; i++ {
		g.edges = append(g.edges, [2]int{i, i + 1})
	}
	return g
}

func TestWLKernel(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b *egraph
		want int64
	}{
		// Every vertex of C3 keeps one colour: 3·3 per round over rounds 0..5.
		{"C3,C3", cycle(3), cycle(3), 54},
		// Round 0: 3·3; after that P3's ends and middle split and C3 (all
		// degree 2) shares only the middle's colour in round 1: 3·1.
		{"C3,P3 one round", cycle(3), path(3), 9 + 3},
	} {
		rounds := 5
		if tc.name == "C3,P3 one round" {
			rounds = 1
		}
		if got := wlKernel(tc.a.adj(), tc.b.adj(), rounds); got != tc.want {
			t.Errorf("%s: wlKernel = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRefineNaivePartition(t *testing.T) {
	cols := refineNaive([][][]int{path(4).adj()}, 2)[0]
	if !samePartition(cols[0], []int{0, 0, 0, 0}) {
		t.Errorf("round 0 %v, want one class", cols[0])
	}
	if !samePartition(cols[1], []int{0, 1, 1, 0}) {
		t.Errorf("round 1 %v, want ends apart from the middle", cols[1])
	}
	if samePartition([]int{0, 0, 1}, []int{0, 1, 1}) || !samePartition([]int{5, 5, 7}, []int{1, 1, 0}) {
		t.Error("samePartition compares colourings up to renaming")
	}
}

func TestCycleHomsAreClosedWalks(t *testing.T) {
	for _, tc := range []struct {
		k    int
		g    *egraph
		want float64
	}{
		{3, complete(3), 6},  // trace(A^3) of K3: the 6 ordered triangles
		{3, cycle(4), 0},     // bipartite: no odd closed walks
		{4, cycle(4), 32},    // 4 vertices · 8 closed ±1 walks of length 4
		{5, cycle(5), 10},    // 5 vertices · (all +1, all −1)
		{4, complete(4), 84}, // Σ λ^4 over spectrum {3, −1, −1, −1}
	} {
		if got := cycleHoms(tc.g.adj(), tc.k)[tc.k]; got != tc.want {
			t.Errorf("hom(C%d, G) = %v, want %v", tc.k, got, tc.want)
		}
	}
}

func TestTreeHom(t *testing.T) {
	star := &egraph{n: 4, edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}}
	for _, tc := range []struct {
		name string
		tree *egraph
		g    *egraph
		want float64
	}{
		{"K2 into C4", path(2), cycle(4), 8},     // 2m
		{"P3 into K3", path(3), complete(3), 12}, // Σ deg²
		{"K1,3 into K4", star, complete(4), 108}, // Σ deg³
	} {
		if got := treeHom(tc.tree.adj(), tc.g.adj()); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestHomVectorScaling(t *testing.T) {
	tri, err := classify(3, cycle(3).edges)
	if err != nil || tri.cycle != 3 {
		t.Fatalf("C3 classified as %+v, %v", tri, err)
	}
	edge, err := classify(2, path(2).edges)
	if err != nil || edge.tree == nil {
		t.Fatalf("K2 classified as %+v, %v", edge, err)
	}
	if _, err := classify(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}); err == nil {
		t.Error("a triangle with a pendant edge is neither a tree nor a cycle")
	}
	got := homVector([]pattern{tri, edge}, complete(3).adj())
	want := []float64{math.Log1p(6) / 3, math.Log1p(6) / 2}
	if !nearVec(got, want, 1e-15) {
		t.Errorf("homVector(K3) = %v, want %v", got, want)
	}
}

func TestTransEOracles(t *testing.T) {
	// Entities on a line, one relation translating by +1: tail of 0 is 1.
	ent := [][]float64{{0}, {1}, {2}, {3}}
	rel := [][]float64{{1}}
	scores := transeScores(ent, rel, 0, 0, true)
	if want := []float64{1, 0, 1, 2}; !nearVec(scores, want, 0) {
		t.Fatalf("tail scores %v, want %v", scores, want)
	}
	if heads := transeScores(ent, rel, 2, 0, false); heads[1] != 0 {
		t.Fatalf("head scores %v: entity 1 is the head of (?, r, 2)", heads)
	}
	top := filteredTop(scores, map[int]bool{0: true}, 2)
	if len(top) != 2 || top[0].id != 1 || top[1].id != 2 {
		t.Errorf("filtered top-2 = %v, want 1 then 2", top)
	}
	test := [][3]int{{0, 0, 1}, {1, 0, 2}}
	if mrr := filteredMRR(ent, rel, test, map[[3]int]bool{}); mrr != 1 {
		t.Errorf("MRR of an exact model = %v, want 1", mrr)
	}
	// (0, r, 2) is off by one both ways: entity 1 outranks the truth as
	// tail of 0 and as head of 2, so both ranks are 2.
	if mrr := filteredMRR(ent, rel, [][3]int{{0, 0, 2}}, map[[3]int]bool{}); mrr != 0.5 {
		t.Errorf("MRR = %v, want 1/2", mrr)
	}
	// Filtering the known (0, r, 1) and (1, r, 2) lifts both ranks to 1.
	known := map[[3]int]bool{{0, 0, 1}: true, {1, 0, 2}: true}
	if mrr := filteredMRR(ent, rel, [][3]int{{0, 0, 2}}, known); mrr != 1 {
		t.Errorf("filtered MRR = %v, want 1", mrr)
	}
}

func TestKNNPurityAndCosine(t *testing.T) {
	vecs := [][]float64{{1, 0}, {0.9, 0.1}, {0.95, 0.05}, {0, 1}, {0.1, 0.9}, {0.05, 0.95}}
	if p := knnPurity(vecs, func(v int) int { return v / 3 }, 2); p != 1 {
		t.Errorf("purity of separated clusters = %v, want 1", p)
	}
	top := topCosine([]float64{1, 0}, vecs, 2)
	if top[0].id != 0 || top[1].id != 2 {
		t.Errorf("topCosine = %v", top)
	}
}

func TestQuantileAndTail(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q1 = %v, want 2", q)
	}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if v, _ := tail(xs); v != 3 {
		t.Errorf("tail of 5 samples is %v, want the median", v)
	}
	if _, label := tail(make([]float64, 1000)); label != "p99" {
		t.Errorf("tail of 1000 samples is %s, want p99", label)
	}
}

// TestHomProbesPremise pins what the serve-graphs probes rely on: the two
// graphs of each pair hash equal under wl.Hash, but their hom vectors (and
// hom(C4) in particular: 150 vs 190 and 48 vs 64) differ.
func TestHomProbesPremise(t *testing.T) {
	o, err := newGraphOracle(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c4 := [clients][2]float64{{150, 190}, {48, 64}}
	for c, pr := range homProbes {
		var hashes [2]uint64
		var vecs [2][]float64
		for j, g := range pr {
			pg, err := graph.ParseGraph(g.text())
			if err != nil {
				t.Fatal(err)
			}
			hashes[j] = wl.Hash(pg)
			vecs[j] = homVector(o.class, g.adj())
			if got := cycleHoms(g.adj(), 4)[4]; got != c4[c][j] {
				t.Errorf("client %d graph %d: hom(C4) = %v, want %v", c, j, got, c4[c][j])
			}
		}
		if hashes[0] != hashes[1] {
			t.Errorf("client %d: the probe graphs hash apart; the probe would not reach the shared cache entry", c)
		}
		if nearVec(vecs[0], vecs[1], 1e-9) {
			t.Errorf("client %d: the probe graphs have equal hom vectors", c)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4):
// for 1..10 that is [2.75, 8.25], for 1..5 [1.5, 4.5].
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q1, q3 float64
	}{{10, 2.75, 8.25}, {5, 1.5, 4.5}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		if q1, q3 := quartiles(xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(1..%d) = %v, %v, want %v, %v", tc.n, q1, q3, tc.q1, tc.q3)
		}
	}
}
