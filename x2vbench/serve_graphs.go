package main

// serve-graphs: x2vecd with a table model and an LSH index takes a mix of
// /homvec, /wl, /kernel (wl and hom) and /neighbors requests from two
// closed-loop clients. Every request graph is new — freshly generated from
// mixed families, or (for /neighbors) a perturbed, renumbered corpus
// member — so every request misses the daemon's caches and goes through
// parse, wl.Hash, the coalescer, an engine pass and the encoder. Each
// client also ends every round with a fixed /homvec probe pair that the
// daemon's hom cache confuses (see homProbes).

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/hom"
	"repro/internal/kernel"
)

const (
	epHomVec = iota
	epWL
	epKernelWL
	epKernelHom
	epNeighbors
	epEmbed
	epLinkPredict
	epReload
	epHomProbe
	epLinkProbe
)

var endpointNames = []string{"homvec", "wl", "kernel-wl", "kernel-hom", "neighbors", "embed", "link-predict", "reload", "homvec-probe", "link-predict-probe"}

const (
	clients      = 2    // closed-loop client connections (nproc on the reference host)
	corpusSize   = 1000 // indexed graphs behind /neighbors
	wlRounds     = 5    // x2vecd's default -rounds
	neighborK    = 10
	coldStarts   = 21 // daemon starts per run; setup_s is their median (one start spreads ±30%)
	graphWarmup  = 100  // warm-up requests per client before the timed window
	graphRound   = 20   // requests per client round: 18 from the stream, then the probe pair
	graphRSSAt   = 4000 // peak_rss_mb is read when this many timed requests have been answered
	recallFloor  = 0.6 // mean served recall@10 against the exact scan
	// The count-sketch and LSH parameters x2vec index uses by default.
	sketchRounds = kernel.DefaultSketchRounds
	sketchWidth  = kernel.DefaultSketchWidth
	sketchSeed   = 2024
)

// graphRequest regenerates request idx of the serve-graphs stream: its
// endpoint and its graph(s).
func graphRequest(seed int64, idx int, corp []*egraph) (ep int, a, b *egraph) {
	r := newRNG(uint64(seed), tagGraphReq, uint64(int64(idx)))
	u := r.float()
	switch {
	case u < 0.3:
		ep = epHomVec
	case u < 0.5:
		ep = epWL
	case u < 0.65:
		ep = epKernelWL
	case u < 0.8:
		ep = epKernelHom
	default:
		ep = epNeighbors
	}
	if ep == epNeighbors {
		return ep, perturb(r, corp[r.intn(len(corp))]), nil
	}
	// Regular graphs stay out of the homomorphism requests: the daemon
	// caches hom vectors under wl.Hash, which merges 1-WL-equivalent regular
	// graphs (e.g. triangle-free cubic graphs of one order) and then serves
	// one graph's vector for another. How often that hits random regular
	// graphs depends on the seed and on what the cache still holds, so it
	// cannot be a fixed share of the operations; the probe pairs at the end
	// of every round show the same fault in every round instead.
	regular := ep == epWL || ep == epKernelWL
	a = mixedGraph(r, regular)
	if ep == epKernelWL || ep == epKernelHom {
		b = mixedGraph(r, regular)
	}
	return ep, a, b
}

func graphOp(seed int64, idx int, corp []*egraph) op {
	ep, a, b := graphRequest(seed, idx, corp)
	var body any
	path := "/" + endpointNames[ep]
	switch ep {
	case epHomVec, epWL:
		body = map[string]string{"graph": a.text()}
	case epKernelWL, epKernelHom:
		name := "wl"
		if ep == epKernelHom {
			name = "hom"
		}
		body = map[string]string{"name": name, "a": a.text(), "b": b.text()}
		path = "/kernel"
	case epNeighbors:
		body = map[string]any{"graph": a.text(), "k": neighborK}
	}
	js, _ := json.Marshal(body) // strings and ints always marshal
	return op{ep: ep, idx: idx, path: path, body: js}
}

// homProbes are, per client, two graphs that wl.Hash cannot tell apart
// (same order, size and degrees, no triangles, so 1-WL gives every vertex
// one colour) but whose homomorphism vectors differ: the Petersen graph and
// the 5-prism (hom(C4) 150 and 190) for client 0, C8 and two disjoint C4s
// (48 and 64) for client 1. The pairs do not depend on the seed. A client
// sends its first graph, then its second, to /homvec at the end of every
// round. Because x2vecd caches hom vectors under wl.Hash, the second is
// answered with the first's vector and fails its check in every round:
// one failed operation per round, whatever the seed or the timing.
var homProbes = [clients][2]*egraph{
	{petersen(), prism(5)},
	{cycles(8), cycles(4, 4)},
}

func petersen() *egraph {
	set := map[[2]int]bool{}
	for i := 0; i < 5; i++ {
		set[pair(i, (i+1)%5)] = true
		set[pair(i, 5+i)] = true
		set[pair(5+i, 5+(i+2)%5)] = true
	}
	return edgeSet(10, set)
}

func prism(k int) *egraph {
	set := map[[2]int]bool{}
	for i := 0; i < k; i++ {
		set[pair(i, (i+1)%k)] = true
		set[pair(i, k+i)] = true
		set[pair(k+i, k+(i+1)%k)] = true
	}
	return edgeSet(2*k, set)
}

// cycles is the disjoint union of cycles of the given lengths.
func cycles(lengths ...int) *egraph {
	set := map[[2]int]bool{}
	n := 0
	for _, l := range lengths {
		for i := 0; i < l; i++ {
			set[pair(n+i, n+(i+1)%l)] = true
		}
		n += l
	}
	return edgeSet(n, set)
}

// homProbeOp is probe j (0 or 1) of client c; idx encodes both.
func homProbeOp(c, j int) op {
	body, _ := json.Marshal(map[string]string{"graph": homProbes[c][j].text()})
	return op{ep: epHomProbe, idx: 2*c + j, path: "/homvec", body: body}
}

// graphFixture is what the serve-graphs daemon serves: a corpus index and
// the small table model -index requires.
type graphFixture struct {
	corpus    []*egraph
	index     string
	table     string
	indexWall time.Duration
}

// writeCorpus writes the corpus as one edge-list file per graph.
func writeCorpus(e *env, corp []*egraph) ([]string, error) {
	files := make([]string, len(corp))
	for i, g := range corp {
		files[i] = e.path(fmt.Sprintf("corpus-%04d.txt", i))
		if err := writeFile(files[i], g.text()); err != nil {
			return nil, err
		}
	}
	return files, nil
}

func buildGraphFixture(ctx context.Context, e *env, seed int64) (*graphFixture, error) {
	f := &graphFixture{corpus: corpus(seed, corpusSize), index: e.path("corpus.x2vm"), table: e.path("table.x2vm")}
	files, err := writeCorpus(e, f.corpus)
	if err != nil {
		return nil, err
	}
	c, err := e.run(ctx, "x2vec", append([]string{"index", "-out", f.index}, files...)...)
	if err != nil {
		return nil, err
	}
	f.indexWall = c.end.Sub(c.start)
	tg := sbm(newRNG(uint64(seed), tagTable), 64, 2, 0.3, 0.02)
	if err := writeFile(e.path("table.txt"), tg.text()); err != nil {
		return nil, err
	}
	if _, err := e.run(ctx, "x2vec", "train", "-model", f.table, "node2vec", e.path("table.txt")); err != nil {
		return nil, err
	}
	return f, nil
}

func serveGraphs(ctx context.Context, e *env, cfg *config, rep *report) error {
	fx, err := buildGraphFixture(ctx, e, cfg.seed)
	if err != nil {
		return err
	}
	rep.linef("input corpus=%d graphs, index build %.3fs", len(fx.corpus), fx.indexWall.Seconds())
	daemonArgs := []string{"-model", fx.table, "-index", fx.index}
	d, setups, err := e.coldStarts(ctx, coldStartsBefore, clients, daemonArgs...)
	if err != nil {
		return err
	}
	res, stats, err := graphLoad(ctx, d, cfg.seed, fx.corpus, time.Duration(cfg.seconds)*time.Second, true)
	if err != nil {
		e.shutdown(d)
		return err
	}
	e.shutdown(d)
	rep.check(res.rssMB > 0, "the window ended before %d requests were answered, so peak RSS was not read", graphRSSAt)
	setup, err := e.coldStartsAfter(ctx, setups, daemonArgs...)
	if err != nil {
		return err
	}

	all := map[int]bool{epHomVec: true, epWL: true, epKernelWL: true, epKernelHom: true, epNeighbors: true, epHomProbe: true}
	st := summarise(res, all)
	rep.linef("requests %d answered, %d not; latency p90 %.3f ms, %s %.3f ms over %d samples (the tail is printed, not gated)",
		st.n, st.failed, st.p90, st.tailLabel, st.tail, st.n)
	for _, ep := range []int{epHomVec, epWL, epKernelWL, epKernelHom, epNeighbors, epHomProbe} {
		s := summarise(res, map[int]bool{ep: true})
		rep.linef("endpoint %-10s n=%6d p50=%.3fms %s=%.3fms", endpointNames[ep], s.n, s.p50, s.tailLabel, s.tail)
	}
	rep.linef("daemon stats %s", stats)
	rep.linef("answered per second %v", perSecond(res))
	recall, failed, err := checkGraphAnswers(rep, cfg.seed, fx.corpus, res)
	if err != nil {
		return err
	}
	rep.ops(len(res.samples), failed)
	rep.linef("neighbors_recall10 %.4f ratio (floor %.2f)", recall, recallFloor)
	rep.check(recall >= recallFloor, "neighbors recall@10 %.4f below floor %.2f", recall, recallFloor)
	rep.metric("setup_s", setup, "s")
	rep.metric("ops_per_s", st.qps, "1/s")
	rep.metric("latency_p50_ms", st.p50, "ms")
	rep.metric("peak_rss_mb", res.rssMB, "MB")
	rep.metric("cpu_ms_per_op", 1e3*res.cpu/float64(st.n), "ms")
	return nil
}

// graphLoad warms the daemon up on a separate stream (negative request
// numbers, so the timed requests stay new), then runs the timed window and
// reads /stats. With probes, every client round ends with the client's
// hom probe pair, and clients stop at round ends.
func graphLoad(ctx context.Context, d *daemon, seed int64, corp []*egraph, dur time.Duration, probes bool) (*loadResult, string, error) {
	warm := func(c int) nextFunc {
		return func(k int, _ time.Duration) op { return graphOp(seed, -1-(k*clients+c), corp) }
	}
	if _, err := runLoad(ctx, d, clients, loadSpec{perClient: graphWarmup}, warm); err != nil {
		return nil, "", err
	}
	timed := func(c int) nextFunc {
		return func(k int, _ time.Duration) op {
			if j := k%graphRound - (graphRound - 2); probes && j >= 0 {
				return homProbeOp(c, j)
			}
			return graphOp(seed, k*clients+c, corp)
		}
	}
	spec := loadSpec{dur: dur, rssAt: graphRSSAt}
	if probes {
		spec.round = graphRound
	}
	res, err := runLoad(ctx, d, clients, spec, timed)
	if err != nil {
		return nil, "", err
	}
	stats, err := getBody(ctx, d, "/stats")
	if err != nil {
		return nil, "", err
	}
	return res, string(stats), nil
}

// graphOracle holds what the checks share: the pattern class in the
// daemon's order and the corpus sketches of the exact neighbour scan.
type graphOracle struct {
	class  []pattern
	sk     kernel.CountSketchWL
	sketch [][]float64
	corpus []*egraph
	seed   int64
}

func newGraphOracle(seed int64, corp []*egraph) (*graphOracle, error) {
	o := &graphOracle{seed: seed, corpus: corp,
		sk: kernel.CountSketchWL{Rounds: sketchRounds, Width: sketchWidth, Seed: sketchSeed}}
	for _, f := range hom.StandardClass() {
		var edges [][2]int
		for _, e := range f.Edges() {
			edges = append(edges, pair(e.U, e.V))
		}
		p, err := classify(f.N(), edges)
		if err != nil {
			return nil, err
		}
		o.class = append(o.class, p)
	}
	o.sketch = make([][]float64, len(corp))
	for i, g := range corp {
		s, err := o.sketchOf(g)
		if err != nil {
			return nil, err
		}
		o.sketch[i] = s
	}
	return o, nil
}

// sketchOf is the index's feature map of a graph. The vector space the
// index lives in is defined by the program's count sketch, so the oracle
// uses it too; ranking, scores and recall are then computed here.
func (o *graphOracle) sketchOf(g *egraph) ([]float64, error) {
	pg, err := graph.ParseGraph(g.text())
	if err != nil {
		return nil, err
	}
	return o.sk.Sketch(pg), nil
}

type homvecResp struct {
	Vector []float64 `json:"vector"`
}
type wlResp struct {
	Rounds  int   `json:"rounds"`
	Classes int   `json:"classes"`
	Colors  []int `json:"colors"`
}
type kernelResp struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}
type neighborsResp struct {
	IDs       []int     `json:"ids"`
	Scores    []float64 `json:"scores"`
	K         int       `json:"k"`
	IndexRows int       `json:"index_rows"`
}

func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func nearVec(a, b []float64, rel float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !near(a[i], b[i], rel) {
			return false
		}
	}
	return true
}

// check verifies one answered request; it returns the neighbour recall
// for /neighbors answers (and -1 otherwise) and a failure description.
func (o *graphOracle) check(ep, idx int, body []byte) (recall float64, fail string) {
	var a, b *egraph
	if ep == epHomProbe {
		a = homProbes[idx/2][idx%2]
	} else {
		ep, a, b = graphRequest(o.seed, idx, o.corpus)
	}
	recall = -1
	switch ep {
	case epHomVec, epHomProbe:
		var r homvecResp
		if err := json.Unmarshal(body, &r); err != nil {
			return recall, err.Error()
		}
		if want := homVector(o.class, a.adj()); !nearVec(r.Vector, want, 1e-9) {
			return recall, fmt.Sprintf("homvec %v, oracle %v", r.Vector, want)
		}
	case epWL:
		var r wlResp
		if err := json.Unmarshal(body, &r); err != nil {
			return recall, err.Error()
		}
		want := refineNaive([][][]int{a.adj()}, wlRounds)[0][wlRounds]
		if r.Rounds != wlRounds || r.Classes != distinct(want) || !samePartition(r.Colors, want) {
			return recall, fmt.Sprintf("wl rounds=%d classes=%d, oracle classes=%d or partition differs", r.Rounds, r.Classes, distinct(want))
		}
	case epKernelWL, epKernelHom:
		var r kernelResp
		if err := json.Unmarshal(body, &r); err != nil {
			return recall, err.Error()
		}
		if ep == epKernelWL {
			if want := float64(wlKernel(a.adj(), b.adj(), wlRounds)); r.Value != want {
				return recall, fmt.Sprintf("wl kernel %v, oracle %v", r.Value, want)
			}
		} else if want := dot(homVector(o.class, a.adj()), homVector(o.class, b.adj())); !near(r.Value, want, 1e-9) {
			return recall, fmt.Sprintf("hom kernel %v, oracle %v", r.Value, want)
		}
	case epNeighbors:
		var r neighborsResp
		if err := json.Unmarshal(body, &r); err != nil {
			return recall, err.Error()
		}
		q, err := o.sketchOf(a)
		if err != nil {
			return recall, err.Error()
		}
		return o.checkNeighbors(q, r)
	}
	return recall, ""
}

// checkNeighbors verifies a /neighbors answer against the exact cosine
// scan: at most k distinct valid ids, non-increasing scores that match the
// oracle's cosines within float32 tolerance; it returns recall@k, where
// an id counts as a hit when it ties the exact k-th score.
func (o *graphOracle) checkNeighbors(q []float64, r neighborsResp) (float64, string) {
	// The LSH pass may find fewer than k candidates (the documented "up to
	// k"); missing entries count against recall, not as failures.
	if r.IndexRows != len(o.sketch) || len(r.IDs) == 0 || len(r.IDs) > neighborK || len(r.Scores) != len(r.IDs) {
		return -1, fmt.Sprintf("neighbors answer with %d ids, %d scores over %d rows", len(r.IDs), len(r.Scores), r.IndexRows)
	}
	exact := topCosine(q, o.sketch, neighborK)
	kth := exact[len(exact)-1].score
	seen := map[int]bool{}
	hits := 0
	for i, id := range r.IDs {
		if id < 0 || id >= len(o.sketch) || seen[id] {
			return -1, fmt.Sprintf("neighbors id %d invalid or repeated", id)
		}
		seen[id] = true
		if i > 0 && r.Scores[i] > r.Scores[i-1]+1e-6 {
			return -1, fmt.Sprintf("neighbors scores increase at %d: %v", i, r.Scores)
		}
		c := cosine(q, o.sketch[id])
		if math.Abs(c-r.Scores[i]) > 1e-4 {
			return -1, fmt.Sprintf("neighbors score %v for id %d, oracle cosine %v", r.Scores[i], id, c)
		}
		if c >= kth-1e-4 {
			hits++
		}
	}
	return float64(hits) / neighborK, ""
}

// checkGraphAnswers verifies every answered request of the window (each
// distinct request/body pair once, on two goroutines). It returns the mean
// /neighbors recall and the number of failed operations: requests not
// answered 200 or answered wrongly. A failed probe is counted there and
// reported; any other failure also fails the run.
func checkGraphAnswers(rep *report, seed int64, corp []*egraph, res *loadResult) (float64, int, error) {
	o, err := newGraphOracle(seed, corp)
	if err != nil {
		return 0, 0, err
	}
	type job struct {
		ep, idx int
		hash    uint64
	}
	seen := map[job]bool{}
	var jobs []job
	failed := 0
	for _, s := range res.samples {
		if !rep.check(s.status == http.StatusOK, "%s request %d answered %d", endpointNames[s.ep], s.idx, s.status) {
			failed++
		}
		j := job{s.ep, s.idx, s.hash}
		if s.status == http.StatusOK && !seen[j] {
			seen[j] = true
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].ep != jobs[b].ep {
			return jobs[a].ep < jobs[b].ep
		}
		return jobs[a].idx < jobs[b].idx
	})
	fails := make([]string, len(jobs))
	recalls := make([]float64, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += clients {
				recalls[i], fails[i] = o.check(jobs[i].ep, jobs[i].idx, res.bodies[jobs[i].hash])
			}
		}(w)
	}
	wg.Wait()
	wrong := map[job]string{}
	var sum float64
	n := 0
	for i, f := range fails {
		j := jobs[i]
		switch {
		case f != "" && j.ep == epHomProbe:
			wrong[j] = f
			rep.linef("homvec probe %d of client %d answered wrongly (hom cache keyed by wl.Hash, fault 3): %s", j.idx%2, j.idx/2, f)
		case f != "":
			wrong[j] = f
			rep.check(false, "%s request %d: %s", endpointNames[j.ep], j.idx, f)
		}
		if recalls[i] >= 0 {
			sum += recalls[i]
			n++
		}
	}
	for _, s := range res.samples {
		if _, ok := wrong[job{s.ep, s.idx, s.hash}]; ok && s.status == http.StatusOK {
			failed++
		}
	}
	if n == 0 {
		rep.check(false, "no /neighbors request was answered")
		return 0, failed, nil
	}
	return sum / float64(n), failed, nil
}

func writeFile(path, text string) error { return os.WriteFile(path, []byte(text), 0o644) }
