package main

// Seeded inputs. Every graph, request stream, training graph and knowledge
// graph the benchmark feeds the program is a pure function of the workload
// seed (and, for request streams, of the request index), built by the
// generators below from a splitmix64 stream. The program only ever sees the
// files and request bodies these produce.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// rng is a splitmix64 stream: tiny, fast to seed per request, and stable
// across Go releases.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x9e3779b97f4a7c15}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// between returns a uniform integer in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Stream tags keep the generators for different inputs of one seed apart.
const (
	tagCorpus uint64 = iota + 1
	tagGraphReq
	tagKGEReq
	tagSBM
	tagKG
	tagTable
)

// egraph is a simple undirected graph as the benchmark generates it: a
// vertex count and an edge list with u < v, no loops, no multi-edges.
type egraph struct {
	n     int
	edges [][2]int
}

// text renders the x2vec edge-list format with a "# n=K" header, so
// isolated vertices survive the round trip.
func (g *egraph) text() string {
	var b strings.Builder
	b.Grow(8 + 8*len(g.edges))
	b.WriteString("# n=")
	b.WriteString(strconv.Itoa(g.n))
	b.WriteByte('\n')
	for _, e := range g.edges {
		b.WriteString(strconv.Itoa(e[0]))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(e[1]))
		b.WriteByte('\n')
	}
	return b.String()
}

// adj returns sorted adjacency lists.
func (g *egraph) adj() [][]int {
	a := make([][]int, g.n)
	for _, e := range g.edges {
		a[e[0]] = append(a[e[0]], e[1])
		a[e[1]] = append(a[e[1]], e[0])
	}
	for _, l := range a {
		sort.Ints(l)
	}
	return a
}

// edgeSet builds a graph from a set of undirected pairs in canonical order.
func edgeSet(n int, set map[[2]int]bool) *egraph {
	g := &egraph{n: n, edges: make([][2]int, 0, len(set))}
	for e := range set {
		g.edges = append(g.edges, e)
	}
	sort.Slice(g.edges, func(i, j int) bool {
		if g.edges[i][0] != g.edges[j][0] {
			return g.edges[i][0] < g.edges[j][0]
		}
		return g.edges[i][1] < g.edges[j][1]
	})
	return g
}

func pair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func erdosRenyi(r *rng, n int, p float64) *egraph {
	set := map[[2]int]bool{}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.float() < p {
				set[[2]int{u, v}] = true
			}
		}
	}
	return edgeSet(n, set)
}

// prefAttach grows a Barabási–Albert graph: each new vertex links to m
// distinct earlier vertices chosen proportionally to degree.
func prefAttach(r *rng, n, m int) *egraph {
	set := map[[2]int]bool{}
	var ends []int
	for v := 1; v <= m && v < n; v++ {
		set[pair(0, v)] = true
		ends = append(ends, 0, v)
	}
	for v := m + 1; v < n; v++ {
		chosen := map[int]bool{}
		for len(chosen) < m {
			chosen[ends[r.intn(len(ends))]] = true
		}
		for _, u := range sortedKeys(chosen) {
			set[pair(u, v)] = true
			ends = append(ends, u, v)
		}
	}
	return edgeSet(n, set)
}

// sbm draws a stochastic block model with vertex v in block v % blocks.
func sbm(r *rng, n, blocks int, pIn, pOut float64) *egraph {
	set := map[[2]int]bool{}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if u%blocks == v%blocks {
				p = pIn
			}
			if r.float() < p {
				set[[2]int{u, v}] = true
			}
		}
	}
	return edgeSet(n, set)
}

// randomRegular pairs d stubs per vertex (configuration model), retrying
// until the pairing is simple; n*d must be even.
func randomRegular(r *rng, n, d int) *egraph {
	for {
		stubs := make([]int, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, v)
			}
		}
		p := r.perm(len(stubs))
		set := map[[2]int]bool{}
		ok := true
		for i := 0; i < len(p); i += 2 {
			u, v := stubs[p[i]], stubs[p[i+1]]
			e := pair(u, v)
			if u == v || set[e] {
				ok = false
				break
			}
			set[e] = true
		}
		if ok {
			return edgeSet(n, set)
		}
	}
}

// randomTree decodes a uniform Prüfer sequence.
func randomTree(r *rng, n int) *egraph {
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = r.intn(n)
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, x := range seq {
		deg[x]++
	}
	set := map[[2]int]bool{}
	for _, x := range seq {
		for leaf := 0; leaf < n; leaf++ {
			if deg[leaf] == 1 {
				set[pair(leaf, x)] = true
				deg[leaf]--
				deg[x]--
				break
			}
		}
	}
	u, v := -1, -1
	for i := 0; i < n; i++ {
		if deg[i] == 1 {
			if u < 0 {
				u = i
			} else {
				v = i
			}
		}
	}
	set[pair(u, v)] = true
	return edgeSet(n, set)
}

// mixedGraph draws one graph of 10–120 vertices from a random family.
// Families whose small members have few isomorphism classes (trees, regular
// graphs) start at sizes where repeats are vanishingly rare, so a stream of
// these graphs misses every isomorphism-keyed cache. Without regular, the
// random-regular family is left out.
func mixedGraph(r *rng, regular bool) *egraph {
	families := 5
	if !regular {
		families = 4
	}
	switch f := r.intn(families); {
	case f == 3 && !regular:
		return randomTree(r, r.between(24, 120))
	case f == 0:
		n := r.between(10, 120)
		return erdosRenyi(r, n, float64(r.between(3, 6))/float64(n-1))
	case f == 1:
		return prefAttach(r, r.between(10, 120), r.between(2, 3))
	case f == 2:
		n := r.between(20, 120)
		b := r.between(2, 4)
		return sbm(r, n, b, 6/float64(n/b), 1/float64(n))
	case f == 3:
		d := r.between(3, 4)
		n := r.between(30, 120)
		if n*d%2 == 1 {
			n++
		}
		return randomRegular(r, n, d)
	default:
		return randomTree(r, r.between(24, 120))
	}
}

// perturb copies g with two edge flips (an edge removed or a non-edge
// added) and a random renumbering of the vertices.
func perturb(r *rng, g *egraph) *egraph {
	set := make(map[[2]int]bool, len(g.edges)+2)
	for _, e := range g.edges {
		set[e] = true
	}
	for flips := 0; flips < 2; {
		u, v := r.intn(g.n), r.intn(g.n)
		if u == v {
			continue
		}
		e := pair(u, v)
		if set[e] {
			if len(set) <= 1 {
				continue
			}
			delete(set, e)
		} else {
			set[e] = true
		}
		flips++
	}
	p := r.perm(g.n)
	out := make(map[[2]int]bool, len(set))
	for e := range set {
		out[pair(p[e[0]], p[e[1]])] = true
	}
	return edgeSet(g.n, out)
}

// corpus is the indexed graph collection of /neighbors.
func corpus(seed int64, size int) []*egraph {
	gs := make([]*egraph, size)
	for i := range gs {
		gs[i] = mixedGraph(newRNG(uint64(seed), tagCorpus, uint64(i)), true)
	}
	return gs
}

// kg is a generated knowledge graph with a held-out test split. Entities
// sit on a side×side grid (ids shuffled); relation r translates a grid
// point by a fixed offset, and each (head, relation) names the exact
// target and up to two grid neighbours of it as tails. Translations are
// what TransE models, so the held-out tails are learnable.
type kg struct {
	entities, relations int
	train, test         [][3]int
}

func (k *kg) text() string {
	var b strings.Builder
	for _, t := range k.train {
		fmt.Fprintf(&b, "%d %d %d\n", t[0], t[1], t[2])
	}
	return b.String()
}

func genKG(seed int64, side, relations int) *kg {
	r := newRNG(uint64(seed), tagKG)
	entities := side * side
	id := r.perm(entities) // grid point -> entity id
	type offset struct{ dx, dy int }
	offs := make([]offset, relations)
	for i := range offs {
		for offs[i] == (offset{}) {
			offs[i] = offset{r.between(-3, 3), r.between(-3, 3)}
		}
	}
	jitter := []offset{{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	var all [][3]int
	for p := 0; p < entities; p++ {
		x, y := p%side, p/side
		for rel, o := range offs {
			if r.intn(2) == 0 {
				continue
			}
			picked := map[int]bool{}
			for j := 0; j < 3; j++ {
				jt := jitter[0]
				if j > 0 {
					jt = jitter[r.between(1, 4)]
				}
				tx, ty := x+o.dx+jt.dx, y+o.dy+jt.dy
				if tx < 0 || ty < 0 || tx >= side || ty >= side || picked[ty*side+tx] {
					continue
				}
				picked[ty*side+tx] = true
				all = append(all, [3]int{id[p], rel, id[ty*side+tx]})
			}
		}
	}
	k := &kg{entities: entities, relations: relations}
	for _, t := range all {
		if r.intn(20) == 0 {
			k.test = append(k.test, t)
		} else {
			k.train = append(k.train, t)
		}
	}
	// Every entity and relation appears in training, so the trained id
	// space covers the whole test split.
	k.ensureCovered()
	return k
}

// ensureCovered moves test triples back into training until every entity
// and relation occurs in a training triple.
func (k *kg) ensureCovered() {
	ent := make([]bool, k.entities)
	rel := make([]bool, k.relations)
	for _, t := range k.train {
		ent[t[0]], ent[t[2]], rel[t[1]] = true, true, true
	}
	var keep [][3]int
	for _, t := range k.test {
		if !ent[t[0]] || !ent[t[2]] || !rel[t[1]] {
			k.train = append(k.train, t)
			ent[t[0]], ent[t[2]], rel[t[1]] = true, true, true
			continue
		}
		keep = append(keep, t)
	}
	k.test = keep
}

// zipf draws ranks in [0, n) with P(rank) proportional to 1/(rank+1)^s,
// through a precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var acc float64
	for i := range z.cdf {
		acc += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = acc
	}
	for i := range z.cdf {
		z.cdf[i] /= acc
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
