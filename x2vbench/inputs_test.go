package main

import (
	"bytes"
	"fmt"
	"testing"
)

// allInputs renders everything one seed feeds the program: the corpus
// files, the SBM and KG training files, the table-model graph, and the
// first request bodies of both serving streams.
func allInputs(seed int64) []byte {
	var b bytes.Buffer
	corp := corpus(seed, 200)
	for _, g := range corp {
		b.WriteString(g.text())
	}
	b.WriteString(sbm(newRNG(uint64(seed), tagSBM), sbmN, sbmBlocks, sbmPIn, sbmPOut).text())
	b.WriteString(sbm(newRNG(uint64(seed), tagTable), 64, 2, 0.3, 0.02).text())
	k := genKG(seed, kgSide, kgRelations)
	b.WriteString(k.text())
	fmt.Fprint(&b, k.test) // the held-out split the MRR is computed on
	ks := newKGEStream(seed, false)
	for i := -50; i < 500; i++ {
		b.Write(graphOp(seed, i, corp).body)
		b.Write(ks.op(i).body)
	}
	return b.Bytes()
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b := allInputs(7), allInputs(7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 produced different inputs on two generations")
	}
	if bytes.Equal(a, allInputs(8)) {
		t.Fatal("seeds 7 and 8 produced the same inputs")
	}
}

func TestGeneratedGraphsAreSimple(t *testing.T) {
	r := newRNG(1)
	for i := 0; i < 300; i++ {
		g := mixedGraph(r, true)
		if g.n < 10 || g.n > 121 {
			t.Fatalf("graph %d has %d vertices", i, g.n)
		}
		seen := map[[2]int]bool{}
		for _, e := range g.edges {
			if e[0] >= e[1] || e[1] >= g.n || seen[e] {
				t.Fatalf("graph %d: bad or repeated edge %v", i, e)
			}
			seen[e] = true
		}
	}
	for _, d := range []int{3, 4} {
		for _, nb := range randomRegular(r, 40, d).adj() {
			if len(nb) != d {
				t.Fatalf("%d-regular graph has a vertex of degree %d", d, len(nb))
			}
		}
	}
	tree := randomTree(r, 50)
	if order, _ := bfsOrder(tree.adj(), 0); len(tree.edges) != 49 || len(order) != 50 {
		t.Fatalf("random tree on 50 vertices: %d edges, %d reachable", len(tree.edges), len(order))
	}
	g := mixedGraph(newRNG(3), true)
	p := perturb(newRNG(4), g)
	if p.n != g.n || abs(len(p.edges)-len(g.edges)) > 2 {
		t.Fatalf("perturb changed %d edges into %d", len(g.edges), len(p.edges))
	}
}

func TestKGCoversTestSplit(t *testing.T) {
	k := genKG(3, kgSide, kgRelations)
	if len(k.test) == 0 || len(k.train) < 10*len(k.test) {
		t.Fatalf("split train=%d test=%d", len(k.train), len(k.test))
	}
	ent := map[int]bool{}
	for _, tr := range k.train {
		ent[tr[0]], ent[tr[2]] = true, true
	}
	for _, tr := range k.test {
		if !ent[tr[0]] || !ent[tr[2]] {
			t.Fatalf("test triple %v mentions an entity absent from training", tr)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
