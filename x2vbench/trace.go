package main

// The traced run (-trace 1). It covers every layer of every workload, so
// each traced run prints the whole per-layer metric set whatever -workload
// names (-workload only names the span file): a short HTTP pass per serving workload gives the client-side
// per-endpoint latencies and the daemon's /stats counters, one training
// round gives whole-process times, and then every workload's inputs are
// replayed in process through the layers' public functions (graph, wl,
// hom, kernel, serve, ann, kge, embed, sgns, model). Each call is a span
// (name, start, end, parent) recorded in memory by the benchmark's own
// code — nothing inside the program is instrumented. The spans are written
// to .bench_build/traces/ at the end, each layer's self time is derived
// from them, and the replay is timed once more untraced to report the
// tracing overhead.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ann"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/hom"
	"repro/internal/kernel"
	"repro/internal/kge"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/wl"
	"repro/internal/word2vec"
)

// span is one timed call; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	off   bool // untraced replay: do() only runs f
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f as a span named name under parent and returns its duration.
func (t *tracer) do(name string, parent int, f func(id int)) time.Duration {
	if t.off {
		start := time.Now()
		f(-1)
		return time.Since(start)
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.mu.Unlock()
	f(id)
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	d := time.Duration(end - t.spans[id].Start)
	t.mu.Unlock()
	return d
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curS, curE int64
		curS, curE = -1, -1
		for _, x := range iv {
			lo, hi := max(x[0], s.Start), min(x[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				covered += curE - curS
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		covered += curE - curS
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// daemonStats is the part of x2vecd's /stats the per-layer metrics read.
type daemonStats struct {
	Pipelines map[string]struct {
		CacheHitRate   float64 `json:"cache_hit_rate"`
		BatchOccupancy float64 `json:"batch_occupancy"`
	} `json:"pipelines"`
}

func parseStats(s string) (*daemonStats, error) {
	var st daemonStats
	if err := json.Unmarshal([]byte(s), &st); err != nil {
		return nil, fmt.Errorf("parse /stats: %w", err)
	}
	return &st, nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

const replayRequests = 300 // serve-graphs requests replayed in process

func traceRun(ctx context.Context, e *env, cfg *config, rep *report) error {
	per := time.Duration(cfg.seconds) * time.Second / 3
	if per < 2*time.Second {
		per = 2 * time.Second
	}
	tr := newTracer()

	// serve-graphs over HTTP.
	fx, err := buildGraphFixture(ctx, e, cfg.seed)
	if err != nil {
		return err
	}
	d, _, err := e.coldStarts(ctx, 1, clients, "-model", fx.table, "-index", fx.index)
	if err != nil {
		return err
	}
	gres, gstats, err := graphLoad(ctx, d, cfg.seed, fx.corpus, per, false)
	e.shutdown(d)
	if err != nil {
		return err
	}
	recall, failed, err := checkGraphAnswers(rep, cfg.seed, fx.corpus, gres)
	if err != nil {
		return err
	}
	gAll := summarise(gres, map[int]bool{epHomVec: true, epWL: true, epKernelWL: true, epKernelHom: true, epNeighbors: true})
	rep.ops(len(gres.samples), failed)
	gst, err := parseStats(gstats)
	if err != nil {
		return err
	}
	httpP50 := func(res *loadResult, eps ...int) float64 {
		m := map[int]bool{}
		for _, ep := range eps {
			m[ep] = true
		}
		return summarise(res, m).p50
	}
	rep.metric("x2vecd.homvec_p50_ms", httpP50(gres, epHomVec), "ms")
	rep.metric("x2vecd.wl_p50_ms", httpP50(gres, epWL), "ms")
	rep.metric("x2vecd.kernel_p50_ms", httpP50(gres, epKernelWL, epKernelHom), "ms")
	rep.metric("x2vecd.neighbors_p50_ms", httpP50(gres, epNeighbors), "ms")
	rep.linef("serve-graphs tail %s over %d samples", gAll.tailLabel, gAll.n)
	rep.metric("x2vecd.latency_p99_ms.graphs", gAll.tail, "ms")
	for _, p := range []string{"wl", "homvec", "kernel"} {
		rep.metric("serve.batch_occupancy."+p, gst.Pipelines[p].BatchOccupancy, "count")
	}
	for _, p := range []string{"wl", "homvec", "kernel", "neighbors"} {
		rep.metric("serve.cache_hit_rate."+p, gst.Pipelines[p].CacheHitRate, "ratio")
	}
	rep.metric("quality.neighbors_recall10", recall, "ratio")

	// serve-kge over HTTP: the read mix, then /reload under /embed traffic.
	// The HTTP passes send no probes and the reloads run beside /embed only:
	// /link-predict after a /reload fails a seed- and timing-dependent
	// number of times (fault 4), which the timed serve-kge run shows as a
	// fixed share instead.
	k, kgPath, err := buildKG(e, cfg.seed)
	if err != nil {
		return err
	}
	genA, err := trainGenA(ctx, e, kgPath)
	if err != nil {
		return err
	}
	genB, err := trainGenB(ctx, e, kgPath, genA)
	if err != nil {
		return err
	}
	d, _, err = e.coldStarts(ctx, 1, clients, "-model", genA)
	if err != nil {
		return err
	}
	mixed := newKGEStream(cfg.seed, false)
	kres, kstats, err := kgeLoad(ctx, d, mixed, [2]string{genA, genB}, loadSpec{dur: per / 2}, 0, false)
	if err != nil {
		e.shutdown(d)
		return err
	}
	// The daemon serves generation 1 (A) after the first pass, so reload j
	// of the second pass brings model_version 1+j, as checkKGEAnswers expects.
	embeds := newKGEStream(cfg.seed, true)
	rres, _, err := kgeLoad(ctx, d, embeds, [2]string{genA, genB}, loadSpec{dur: per / 2}, 250*time.Millisecond, false)
	e.shutdown(d)
	if err != nil {
		return err
	}
	for _, pass := range []struct {
		s   *kgeStream
		res *loadResult
	}{{mixed, kres}, {embeds, rres}} {
		failed, err := checkKGEAnswers(rep, pass.s, k, [2]string{genA, genB}, pass.res)
		if err != nil {
			return err
		}
		rep.ops(len(pass.res.samples), failed)
	}
	kst, err := parseStats(kstats)
	if err != nil {
		return err
	}
	rep.metric("x2vecd.embed_p50_ms", httpP50(kres, epEmbed), "ms")
	rep.metric("x2vecd.link_predict_p50_ms", httpP50(kres, epLinkPredict), "ms")
	kAll := summarise(kres, map[int]bool{epEmbed: true, epLinkPredict: true})
	rep.linef("serve-kge tail %s over %d samples", kAll.tailLabel, kAll.n)
	rep.metric("x2vecd.latency_p99_ms.kge", kAll.tail, "ms")
	rep.metric("x2vecd.reload_ms", httpP50(rres, epReload), "ms")
	rep.metric("serve.cache_hit_rate.embed", kst.Pipelines["embed"].CacheHitRate, "ratio")
	rep.metric("serve.cache_hit_rate.link-predict", kst.Pipelines["link-predict"].CacheHitRate, "ratio")

	// train: one round of whole processes.
	in, err := buildTrainInputs(e, cfg.seed)
	if err != nil {
		return err
	}
	rr, err := in.round(ctx, e)
	if err != nil {
		return err
	}
	rep.ops(1, 0)
	rep.metric("x2vec.node2vec_train_s", rr.walls["node2vec"], "s")
	rep.metric("x2vec.transe_train_s", rr.walls["transe"], "s")
	rep.metric("x2vec.index_build_s", rr.walls["index"], "s")
	purity, mrr, err := trainedQuality(e, rep, in)
	if err != nil {
		return err
	}
	rep.metric("quality.node2vec_knn_purity", purity, "ratio")
	rep.metric("quality.transe_filtered_mrr", mrr, "ratio")
	if ctx.Err() != nil {
		return ctx.Err()
	}

	// In-process replays.
	occ := func(p string) int {
		b := int(gst.Pipelines[p].BatchOccupancy + 0.5)
		if b < 1 {
			b = 1
		}
		return b
	}
	if err := replayGraphs(tr, rep, e, cfg.seed, fx, occ, httpP50(gres, epHomVec)); err != nil {
		return err
	}
	if err := replayKGE(tr, rep, cfg.seed, k, genA, genB, httpP50(kres, epEmbed)); err != nil {
		return err
	}
	if err := replayTrain(tr, rep, e, in); err != nil {
		return err
	}
	overhead, err := tracingOverhead(cfg.seed, fx)
	if err != nil {
		return err
	}
	rep.metric("trace.overhead_pct", overhead, "%")

	self := tr.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		rep.linef("self time %-10s %10.3f ms", l, msOf(self[l]))
	}
	return writeSpans(cfg, tr.spans)
}

func writeSpans(cfg *config, spans []span) error {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	fmt.Fprintf(os.Stderr, "x2vbench: %d spans written to %s\n", len(spans), path)
	return os.WriteFile(path, b, 0o644)
}

// allocPerCall runs f and returns the bytes allocated per call of n.
func allocPerCall(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// replayGraphs replays the first serve-graphs requests in process: parse,
// hash, the serve.Server pipelines with the daemon's default options from
// two goroutines (as the two HTTP clients), the corpus engines at the
// batch sizes the daemon reported, and the /neighbors path.
func replayGraphs(tr *tracer, rep *report, e *env, seed int64, fx *graphFixture, occ func(string) int, httpHomP50 float64) error {
	type req struct {
		ep   int
		a, b *graph.Graph
		ta   string
	}
	reqs := make([]req, replayRequests)
	var parse, hash []time.Duration
	root := -1
	tr.do("replay.graphs", -1, func(id int) {
		root = id
		for i := range reqs {
			ep, a, b := graphRequest(seed, i, fx.corpus)
			reqs[i].ep, reqs[i].ta = ep, a.text()
			parse = append(parse, tr.do("graph.parse", id, func(int) { reqs[i].a, _ = graph.ParseGraph(reqs[i].ta) }))
			if b != nil {
				reqs[i].b, _ = graph.ParseGraph(b.text())
			}
			hash = append(hash, tr.do("wl.hash", id, func(int) { wl.Hash(reqs[i].a) }))
		}
	})
	rep.metric("graph.parse_us", usOf(medianDur(parse)), "us")
	rep.metric("wl.hash_us", usOf(medianDur(hash)), "us")

	srv := serve.New(serve.Options{})
	defer srv.Close()
	svc, err := srv.NewEmbedService(fx.table, fx.index, true, 0)
	if err != nil {
		return err
	}
	defer svc.Close()
	calls := make([][]time.Duration, epNeighbors+1)
	var mu sync.Mutex
	var callErr error
	alloc := allocPerCall(len(reqs), func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(reqs); i += clients {
					r := reqs[i]
					var err error
					d := tr.do("serve."+endpointNames[r.ep], root, func(int) {
						switch r.ep {
						case epHomVec:
							_, err = srv.HomVec(r.a)
						case epWL:
							_, err = srv.WL(r.a)
						case epKernelWL:
							_, err = srv.Kernel("wl", r.a, r.b)
						case epKernelHom:
							_, err = srv.Kernel("hom", r.a, r.b)
						case epNeighbors:
							_, err = svc.Neighbors(r.a, neighborK, 0)
						}
					})
					mu.Lock()
					calls[r.ep] = append(calls[r.ep], d)
					if err != nil {
						callErr = err
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
	})
	if callErr != nil {
		return callErr
	}
	rep.metric("serve.alloc_bytes_per_req.graphs", alloc, "B")
	rep.metric("x2vecd.overhead_us.graphs", httpHomP50*1e3-usOf(medianDur(calls[epHomVec])), "us")

	// Engine passes at the observed batch sizes, over the same graphs.
	var gs []*graph.Graph
	for _, r := range reqs {
		if r.ep != epNeighbors {
			gs = append(gs, r.a)
		}
	}
	cc := hom.Compile(hom.StandardClass())
	wlK := kernel.WLSubtree{Rounds: wlRounds}
	engines := []struct {
		name, pipeline string
		run            func([]*graph.Graph)
	}{
		{"wl.refine", "wl", func(b []*graph.Graph) { wl.RefineCorpusWorkers(b, wlRounds, 0) }},
		{"hom.vectors", "homvec", func(b []*graph.Graph) { hom.CorpusLogScaledVectorsWorkers(cc, b, 0) }},
		{"kernel.wl_features", "kernel", func(b []*graph.Graph) { wlK.CorpusFeatures(b, 0) }},
	}
	batchMs := map[string]float64{}
	for _, eng := range engines {
		size := occ(eng.pipeline)
		var perBatch []time.Duration
		for lo := 0; lo+size <= len(gs); lo += size {
			batch := gs[lo : lo+size]
			perBatch = append(perBatch, tr.do(eng.name, root, func(int) { eng.run(batch) }))
		}
		m := medianDur(perBatch)
		batchMs[eng.pipeline] = msOf(m)
		rep.metric(eng.name+"_us_per_graph", usOf(m)/float64(size), "us")
	}
	var waits []float64
	for ep, pipeline := range map[int]string{epHomVec: "homvec", epWL: "wl", epKernelWL: "kernel"} {
		for _, d := range calls[ep] {
			waits = append(waits, msOf(d)-batchMs[pipeline])
		}
	}
	rep.metric("serve.queue_wait_ms", median(waits), "ms")

	// The /neighbors path, layer by layer.
	var idxOpen time.Duration
	var ix *model.ANNIndex
	idxOpen = tr.do("model.index_open", root, func(int) {
		ix, err = model.OpenANNIndex(fx.index)
		if err == nil {
			err = ix.Verify()
		}
	})
	if err != nil {
		return err
	}
	defer ix.Close()
	rep.metric("model.index_open_ms", msOf(idxOpen), "ms")
	sk := kernel.CountSketchWL{Rounds: ix.Index.SketchRounds, Width: ix.Index.SketchWidth, Seed: ix.Index.SketchSeed}
	s := ann.NewSearcher(ix.Index)
	var sketchT, searchT, exactT []time.Duration
	dst := make([]ann.Neighbor, 0, neighborK)
	for _, r := range reqs {
		if r.ep != epNeighbors {
			continue
		}
		var q []float64
		sketchT = append(sketchT, tr.do("kernel.sketch", root, func(int) { q = sk.Sketch(r.a) }))
		searchT = append(searchT, tr.do("ann.search", root, func(int) { dst, err = s.Search(q, neighborK, serve.DefaultProbes, dst) }))
		exactT = append(exactT, tr.do("ann.exact_topk", root, func(int) { dst, err = s.ExactTopK(q, neighborK, dst) }))
		if err != nil {
			return err
		}
	}
	rep.metric("kernel.sketch_us", usOf(medianDur(sketchT)), "us")
	rep.metric("ann.search_us", usOf(medianDur(searchT)), "us")
	rep.metric("ann.exact_topk_us", usOf(medianDur(exactT)), "us")
	return nil
}

// replayKGE replays the serve-kge stream through serve.EmbedService with
// the daemon's defaults, plus the model layer's open, verify and reload.
func replayKGE(tr *tracer, rep *report, seed int64, k *kg, genA, genB string, httpEmbedP50 float64) error {
	var m *model.KGEModel
	var err error
	open := tr.do("model.open", -1, func(int) { m, err = model.OpenKGE(genA) })
	if err != nil {
		return err
	}
	verify := tr.do("model.verify", -1, func(int) { err = m.Verify() })
	if err != nil {
		m.Close()
		return err
	}
	rep.metric("model.open_ms", msOf(open), "ms")
	rep.metric("model.verify_ms", msOf(verify), "ms")

	srv := serve.New(serve.Options{})
	defer srv.Close()
	svc, err := srv.NewEmbedService(genA, "", true, 0)
	if err != nil {
		m.Close()
		return err
	}
	defer svc.Close()
	s := newKGEStream(seed, false)
	var lookups, miss, hit, top []time.Duration
	seen := map[[3]int]bool{}
	v := m.View()
	tails, heads := knownSides(k.train)
	n := 4000
	alloc := allocPerCall(n, func() {
		tr.do("replay.kge", -1, func(root int) {
			for i := 0; i < n && err == nil; i++ {
				ep, anchor, rel, tailMode := s.request(i)
				if ep == epEmbed {
					lookups = append(lookups, tr.do("serve.lookup", root, func(int) { _, _, _, err = svc.Lookup(anchor) }))
					continue
				}
				mode := "head"
				if tailMode {
					mode = "tail"
				}
				key := [3]int{anchor, rel, boolInt(tailMode)}
				d := tr.do("serve.link_predict", root, func(int) { _, err = svc.LinkPredict(anchor, rel, linkK, mode) })
				if seen[key] {
					hit = append(hit, d)
					continue
				}
				seen[key] = true
				miss = append(miss, d)
				known := tails[[2]int{anchor, rel}]
				if !tailMode {
					known = heads[[2]int{rel, anchor}]
				}
				skip := map[int]bool{anchor: true}
				for _, x := range known {
					skip[x] = true
				}
				exclude := func(e int) bool { return skip[e] }
				top = append(top, tr.do("kge.top_tails", root, func(int) {
					if tailMode {
						_, err = v.TopTails(anchor, rel, linkK, 0, exclude)
					} else {
						_, err = v.TopHeads(rel, anchor, linkK, 0, exclude)
					}
				}))
			}
		})
	})
	m.Close()
	if err != nil {
		return err
	}
	rep.metric("serve.alloc_bytes_per_req.kge", alloc, "B")
	rep.metric("serve.lookup_us", usOf(medianDur(lookups)), "us")
	rep.metric("serve.link_predict_hit_us", usOf(medianDur(hit)), "us")
	rep.metric("serve.link_predict_miss_us", usOf(medianDur(miss)), "us")
	rep.metric("kge.top_tails_us", usOf(medianDur(top)), "us")
	rep.metric("x2vecd.overhead_us.kge", httpEmbedP50*1e3-usOf(medianDur(lookups)), "us")

	var reloads []time.Duration
	for j := 1; j <= 6 && err == nil; j++ {
		path := genB
		if j%2 == 0 {
			path = genA
		}
		reloads = append(reloads, tr.do("serve.reload", -1, func(int) { _, err = svc.Reload(path, "") }))
	}
	if err != nil {
		return err
	}
	rep.metric("serve.reload_ms", msOf(medianDur(reloads)), "ms")
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replayTrain replays one training round in process with the settings the
// CLI uses under -f32 -workers 0: walks, SGNS, TransE, the corpus sketch,
// the LSH build, and the saves.
func replayTrain(tr *tracer, rep *report, e *env, in *trainInputs) error {
	var g *graph.Graph
	var err error
	load := tr.do("graph.load", -1, func(int) { g, err = graph.LoadGraphFile(in.sbm) })
	if err != nil {
		return err
	}
	rep.metric("graph.load_ms", msOf(load), "ms")
	rng := rand.New(rand.NewSource(1))
	var walks [][]int
	wt := tr.do("embed.walks", -1, func(int) {
		walks = embed.RandomWalks(g, embed.WalkConfig{WalksPerNode: 10, WalkLength: 20, P: 1, Q: 1, Workers: 0}, rng)
	})
	rep.metric("embed.walks_s", wt.Seconds(), "s")
	cfg := word2vec.DefaultConfig()
	cfg.Dim, cfg.Window, cfg.Workers = 8, 5, 0
	var emb []float64
	var st time.Duration
	sgnsAlloc := allocPerCall(1, func() {
		st = tr.do("sgns.train", -1, func(int) { emb = word2vec.Train32(walks, g.N(), cfg, rng).Float64() })
	})
	pairs := 0
	for _, w := range walks {
		for i := range w {
			pairs += min(i, cfg.Window) + min(len(w)-1-i, cfg.Window)
		}
	}
	rep.metric("sgns.train_s", st.Seconds(), "s")
	rep.metric("sgns.pairs_per_s", float64(pairs*cfg.Epochs)/st.Seconds(), "1/s")
	rep.metric("sgns.alloc_bytes", sgnsAlloc, "B")

	triples := make([]kge.Triple, len(in.kg.train))
	for i, t := range in.kg.train {
		triples[i] = t
	}
	kcfg := kge.DefaultTransE32Config()
	kcfg.Dim, kcfg.Workers = 8, 0
	var tm *kge.TransE32
	kt := tr.do("kge.train", -1, func(int) { tm, err = kge.TrainTransE32(triples, in.kg.entities, in.kg.relations, kcfg, 1) })
	if err != nil {
		return err
	}
	rep.metric("kge.train_s", kt.Seconds(), "s")
	rep.metric("kge.triples_per_s", float64(len(triples)*kcfg.Epochs)/kt.Seconds(), "1/s")

	gs := make([]*graph.Graph, len(in.corpus))
	for i, c := range in.corpus {
		if gs[i], err = graph.ParseGraph(c.text()); err != nil {
			return err
		}
	}
	sk := kernel.CountSketchWL{Rounds: sketchRounds, Width: sketchWidth, Seed: sketchSeed}
	var ix *ann.Index
	var bt time.Duration
	sc := tr.do("kernel.sketch_corpus", -1, func(id int) {
		vecs := sk.CorpusSketchMatrix(gs, 0)
		bt = tr.do("ann.build", id, func(int) {
			ix, err = ann.Build(vecs, ann.Config{Tables: ann.DefaultTables, Bits: ann.DefaultBits, Seed: 1,
				SketchRounds: sketchRounds, SketchWidth: sketchWidth, SketchSeed: sketchSeed}, 0)
		})
	})
	if err != nil {
		return err
	}
	rep.metric("kernel.sketch_corpus_s", (sc - bt).Seconds(), "s")
	rep.metric("ann.build_s", bt.Seconds(), "s")

	save := tr.do("model.save", -1, func(int) {
		if err = model.SaveANNIndex(e.path("replay-index.x2vm"), ix); err != nil {
			return
		}
		if err = model.SaveEmbeddings(e.path("replay-node2vec.x2vm"), model.EmbeddingsSpec{Kind: model.KindNodeEmbedding,
			Method: "node2vec", Rows: g.N(), Cols: cfg.Dim, Data: emb, DType: model.DTypeF32}); err != nil {
			return
		}
		err = model.SaveKGE(e.path("replay-transe.x2vm"), model.KGESpecFrom(tm.View(), in.kg.train, model.DTypeF32))
	})
	if err != nil {
		return err
	}
	rep.metric("model.save_ms", msOf(save), "ms")
	return nil
}

// tracingOverhead times the graph replay (parse, hash, hom corpus engine
// on each request) untraced and traced, three times each, alternating, and
// returns the traced median's excess over the untraced one in percent.
func tracingOverhead(seed int64, fx *graphFixture) (float64, error) {
	texts := make([]string, replayRequests)
	for i := range texts {
		_, a, _ := graphRequest(seed, i, fx.corpus)
		texts[i] = a.text()
	}
	cc := hom.Compile(hom.StandardClass())
	pass := func(t *tracer) (time.Duration, error) {
		var err error
		start := time.Now()
		t.do("overhead", -1, func(root int) {
			for _, txt := range texts {
				var g *graph.Graph
				t.do("graph.parse", root, func(int) { g, err = graph.ParseGraph(txt) })
				if err != nil {
					return
				}
				t.do("wl.hash", root, func(int) { wl.Hash(g) })
				t.do("hom.vectors", root, func(int) { hom.CorpusLogScaledVectorsWorkers(cc, []*graph.Graph{g}, 1) })
			}
		})
		return time.Since(start), err
	}
	var plain, traced []time.Duration
	for i := 0; i < 3; i++ {
		d, err := pass(&tracer{t0: time.Now(), off: true})
		if err != nil {
			return 0, err
		}
		plain = append(plain, d)
		if d, err = pass(newTracer()); err != nil {
			return 0, err
		}
		traced = append(traced, d)
	}
	p, t := medianDur(plain), medianDur(traced)
	return 100 * float64(t-p) / float64(p), nil
}
