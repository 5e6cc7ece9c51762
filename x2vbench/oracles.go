package main

// Independent oracles the served answers are checked against. Each is a
// plain, slow, textbook computation written here from the definitions, not
// a call into the program's engines.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// refineNaive runs `rounds` rounds of 1-WL colour refinement on each graph
// with one colour dictionary shared by all of them, so colours are
// comparable across the graphs. It returns colours[graph][round][vertex]
// for rounds 0..rounds; round 0 colours every vertex alike.
func refineNaive(gs [][][]int, rounds int) [][][]int {
	out := make([][][]int, len(gs))
	for i, adj := range gs {
		out[i] = [][]int{make([]int, len(adj))}
	}
	for r := 1; r <= rounds; r++ {
		dict := map[string]int{}
		for i, adj := range gs {
			cur := out[i][r-1]
			next := make([]int, len(adj))
			for v, nbrs := range adj {
				cols := make([]int, len(nbrs))
				for j, u := range nbrs {
					cols[j] = cur[u]
				}
				sort.Ints(cols)
				var b strings.Builder
				b.WriteString(strconv.Itoa(cur[v]))
				for _, c := range cols {
					b.WriteByte(',')
					b.WriteString(strconv.Itoa(c))
				}
				key := b.String()
				id, ok := dict[key]
				if !ok {
					id = len(dict)
					dict[key] = id
				}
				next[v] = id
			}
			out[i] = append(out[i], next)
		}
	}
	return out
}

// samePartition reports whether two colourings induce the same partition
// of the vertices (equal up to renaming the colours).
func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ab, ba := map[int]int{}, map[int]int{}
	for i := range a {
		if x, ok := ab[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := ba[b[i]]; ok && x != a[i] {
			return false
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return true
}

func distinct(xs []int) int {
	m := map[int]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return len(m)
}

// wlKernel is the WL subtree kernel: over rounds 0..rounds, the dot
// product of the two graphs' colour histograms under a joint refinement.
func wlKernel(a, b [][]int, rounds int) int64 {
	cols := refineNaive([][][]int{a, b}, rounds)
	var k int64
	for r := 0; r <= rounds; r++ {
		ha, hb := map[int]int64{}, map[int]int64{}
		for _, c := range cols[0][r] {
			ha[c]++
		}
		for _, c := range cols[1][r] {
			hb[c]++
		}
		for c, x := range ha {
			k += x * hb[c]
		}
	}
	return k
}

// cycleHoms returns hom(C_k, G) = trace(A^k) for k = 3..maxK, from dense
// powers of the adjacency matrix built one sparse product at a time.
func cycleHoms(adj [][]int, maxK int) map[int]float64 {
	n := len(adj)
	cur := make([]float64, n*n) // A^1
	for v, nbrs := range adj {
		for _, u := range nbrs {
			cur[v*n+u]++
		}
	}
	out := map[int]float64{}
	next := make([]float64, n*n)
	for k := 2; k <= maxK; k++ {
		for i := range next {
			next[i] = 0
		}
		// next = A * cur: row v of next sums the rows of cur at v's neighbours.
		for v, nbrs := range adj {
			row := next[v*n : (v+1)*n]
			for _, u := range nbrs {
				src := cur[u*n : (u+1)*n]
				for j, x := range src {
					row[j] += x
				}
			}
		}
		cur, next = next, cur
		if k >= 3 {
			var tr float64
			for v := 0; v < n; v++ {
				tr += cur[v*n+v]
			}
			out[k] = tr
		}
	}
	return out
}

// treeHom counts homomorphisms from the tree T into G by dynamic
// programming from the leaves: f(t, x) is the number of homomorphisms of
// the subtree below t that send t to x.
func treeHom(tree [][]int, adj [][]int) float64 {
	order, parent := bfsOrder(tree, 0)
	f := make([][]float64, len(tree))
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		ft := make([]float64, len(adj))
		for x := range ft {
			ft[x] = 1
		}
		for _, c := range tree[t] {
			if c == parent[t] {
				continue
			}
			for x, nbrs := range adj {
				var s float64
				for _, y := range nbrs {
					s += f[c][y]
				}
				ft[x] *= s
			}
		}
		f[t] = ft
	}
	var total float64
	for _, x := range f[0] {
		total += x
	}
	return total
}

func bfsOrder(adj [][]int, root int) (order, parent []int) {
	parent = make([]int, len(adj))
	for i := range parent {
		parent[i] = -2
	}
	parent[root] = -1
	order = []int{root}
	for i := 0; i < len(order); i++ {
		for _, u := range adj[order[i]] {
			if parent[u] == -2 {
				parent[u] = order[i]
				order = append(order, u)
			}
		}
	}
	return order, parent
}

// pattern is one member of the hom pattern class, classified for the
// oracle: a cycle of length k, or a tree given by adjacency lists.
type pattern struct {
	cycle int
	tree  [][]int
	n     int
}

// classify accepts only cycles and trees, the two shapes the oracle counts.
func classify(n int, edges [][2]int) (pattern, error) {
	adj := (&egraph{n: n, edges: edges}).adj()
	order, _ := bfsOrder(adj, 0)
	connected := len(order) == n
	regular2 := true
	for _, nb := range adj {
		if len(nb) != 2 {
			regular2 = false
		}
	}
	switch {
	case connected && len(edges) == n-1:
		return pattern{tree: adj, n: n}, nil
	case connected && regular2 && len(edges) == n && n >= 3:
		return pattern{cycle: n, n: n}, nil
	}
	return pattern{}, fmt.Errorf("pattern with %d vertices and %d edges is neither a tree nor a cycle", n, len(edges))
}

// homVector is log1p(hom(F, G)) / |V(F)| for every pattern F, in order.
func homVector(class []pattern, adj [][]int) []float64 {
	maxK := 3
	for _, p := range class {
		if p.cycle > maxK {
			maxK = p.cycle
		}
	}
	cycles := cycleHoms(adj, maxK)
	out := make([]float64, len(class))
	for i, p := range class {
		var c float64
		if p.cycle > 0 {
			c = cycles[p.cycle]
		} else {
			c = treeHom(p.tree, adj)
		}
		out[i] = math.Log1p(c) / float64(p.n)
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func cosine(a, b []float64) float64 {
	na, nb := math.Sqrt(dot(a, a)), math.Sqrt(dot(b, b))
	if na == 0 || nb == 0 {
		return 0
	}
	return dot(a, b) / (na * nb)
}

// scored is one candidate of a brute-force ranking.
type scored struct {
	id    int
	score float64
}

// topCosine ranks rows by cosine similarity to q, best first.
func topCosine(q []float64, rows [][]float64, k int) []scored {
	all := make([]scored, len(rows))
	for i, r := range rows {
		all[i] = scored{i, cosine(q, r)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// transeScores returns ‖h + r − t‖ for every candidate t (tail mode) or
// ‖h + r − t‖ for every candidate h with t fixed (head mode).
func transeScores(ent, rel [][]float64, anchor, r int, tailMode bool) []float64 {
	out := make([]float64, len(ent))
	a, rv := ent[anchor], rel[r]
	for e, c := range ent {
		var s float64
		for i := range c {
			var d float64
			if tailMode {
				d = a[i] + rv[i] - c[i]
			} else {
				d = c[i] + rv[i] - a[i]
			}
			s += d * d
		}
		out[e] = math.Sqrt(s)
	}
	return out
}

// filteredTop is the brute-force filtered top-k: candidates in skip are
// left out, the rest ranked by ascending score.
func filteredTop(scores []float64, skip map[int]bool, k int) []scored {
	var all []scored
	for e, s := range scores {
		if !skip[e] {
			all = append(all, scored{e, s})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return all[i].id < all[j].id
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// filteredMRR is the mean reciprocal rank of the true tail and the true
// head of each test triple, with every other known triple filtered out.
func filteredMRR(ent, rel [][]float64, test [][3]int, known map[[3]int]bool) float64 {
	var sum float64
	for _, t := range test {
		for _, tail := range []bool{true, false} {
			anchor, truth := t[0], t[2]
			if !tail {
				anchor, truth = t[2], t[0]
			}
			scores := transeScores(ent, rel, anchor, t[1], tail)
			rank := 1
			for e, s := range scores {
				if e == truth || s >= scores[truth] {
					continue
				}
				cand := [3]int{anchor, t[1], e}
				if !tail {
					cand = [3]int{e, t[1], anchor}
				}
				if !known[cand] {
					rank++
				}
			}
			sum += 1 / float64(rank)
		}
	}
	return sum / float64(2*len(test))
}

// knnPurity is the mean share of each vertex's k cosine-nearest other
// vertices that lie in its own block.
func knnPurity(vecs [][]float64, block func(int) int, k int) float64 {
	var sum float64
	for v := range vecs {
		type cand struct {
			u int
			c float64
		}
		cs := make([]cand, 0, len(vecs)-1)
		for u := range vecs {
			if u != v {
				cs = append(cs, cand{u, cosine(vecs[v], vecs[u])})
			}
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].c > cs[j].c })
		same := 0
		for _, c := range cs[:k] {
			if block(c.u) == block(v) {
				same++
			}
		}
		sum += float64(same) / float64(k)
	}
	return sum / float64(len(vecs))
}

// quantile is the q-quantile of xs by linear interpolation (xs need not be
// sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the latency tail the benchmark reports: p99 when at least ten
// samples lie beyond it, otherwise the highest of p90 and p75 that leaves
// ten beyond it. Below forty samples there is no tail to speak of and the
// median stands in. label names the percentile taken.
func tail(xs []float64) (v float64, label string) {
	switch n := len(xs); {
	case n >= 1000:
		return quantile(xs, 0.99), "p99"
	case n >= 100:
		return quantile(xs, 0.9), "p90"
	case n >= 40:
		return quantile(xs, 0.75), "p75"
	}
	return median(xs), "p50 (fewer than 40 samples)"
}
