package main

// train: whole `x2vec` processes in sequence, repeated in rounds for the
// length of the window: node2vec on an SBM graph, TransE on a generated
// knowledge graph with held-out test triples, and the LSH index over a
// graph corpus. No serving happens while the window runs. Afterwards the
// last round's outputs are checked (k-NN block purity, filtered MRR) and
// x2vecd is cold-started on the trained model and index: its start-up is
// this workload's set-up time, and /neighbors queries check the index.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/model"
)

const (
	sbmN        = 600
	sbmBlocks   = 4
	sbmPIn      = 0.05
	sbmPOut     = 0.002
	purityK     = 10
	purityFloor = 0.6  // chance is 1/sbmBlocks
	mrrFloor    = 0.03 // chance is about 1/kgEntities
	recallQs    = 64   // /neighbors queries against the trained index
)

// trainInputs are the files every round trains on.
type trainInputs struct {
	sbm, kgPath string
	kg          *kg
	corpus      []*egraph
	corpusFiles []string
}

func buildTrainInputs(e *env, seed int64) (*trainInputs, error) {
	in := &trainInputs{sbm: e.path("sbm.txt"), corpus: corpus(seed, corpusSize)}
	g := sbm(newRNG(uint64(seed), tagSBM), sbmN, sbmBlocks, sbmPIn, sbmPOut)
	if err := writeFile(in.sbm, g.text()); err != nil {
		return nil, err
	}
	var err error
	if in.kg, in.kgPath, err = buildKG(e, seed); err != nil {
		return nil, err
	}
	if in.corpusFiles, err = writeCorpus(e, in.corpus); err != nil {
		return nil, err
	}
	return in, nil
}

// daemonArgs serves the node2vec model and the index a round writes.
func (in *trainInputs) daemonArgs(e *env) []string {
	return []string{"-model", e.path("node2vec.x2vm"), "-index", e.path("index.x2vm")}
}

// trainJobs are the three processes of one round, in order.
var trainJobs = []string{"node2vec", "transe", "index"}

func (in *trainInputs) jobArgs(job, out string) []string {
	switch job {
	case "node2vec":
		return []string{"train", "-f32", "-workers", "0", "-model", out, "node2vec", in.sbm}
	case "transe":
		return []string{"train", "-f32", "-workers", "0", "-model", out, "transe", in.kgPath}
	}
	return append([]string{"index", "-out", out}, in.corpusFiles...)
}

// roundResult is what one round measured.
type roundResult struct {
	walls map[string]float64 // wall time of each process, s
	cpu   float64            // user+system CPU of the three processes, s
	rss   float64            // largest peak RSS, MB
}

// round runs the three processes of one round in sequence.
func (in *trainInputs) round(ctx context.Context, e *env) (*roundResult, error) {
	r := &roundResult{walls: map[string]float64{}}
	for _, job := range trainJobs {
		c, err := e.run(ctx, "x2vec", in.jobArgs(job, e.path(job+".x2vm"))...)
		if err != nil {
			return nil, err
		}
		r.walls[job] = c.end.Sub(c.start).Seconds()
		r.cpu += (c.cmd.ProcessState.UserTime() + c.cmd.ProcessState.SystemTime()).Seconds()
		r.rss = math.Max(r.rss, c.maxRSSMB())
	}
	return r, nil
}

func train(ctx context.Context, e *env, cfg *config, rep *report) error {
	in, err := buildTrainInputs(e, cfg.seed)
	if err != nil {
		return err
	}
	rep.linef("input sbm n=%d blocks=%d, kg train=%d test=%d, corpus=%d graphs", sbmN, sbmBlocks, len(in.kg.train), len(in.kg.test), len(in.corpus))
	var rounds, cpus, setups []float64
	perJob := map[string][]float64{}
	peak := 0.0
	start := time.Now()
	window := time.Duration(cfg.seconds) * time.Second
	for len(rounds) == 0 || time.Since(start) < window {
		r, err := in.round(ctx, e)
		if err != nil {
			return err
		}
		total := 0.0
		for _, job := range trainJobs {
			perJob[job] = append(perJob[job], r.walls[job])
			total += r.walls[job]
		}
		rounds = append(rounds, total*1e3)
		cpus = append(cpus, r.cpu*1e3)
		peak = math.Max(peak, r.rss)
		// One cold start between rounds, on what the round wrote, spreads
		// the set-up samples over the window; rounds are timed by their
		// processes alone, so the gap does not enter them.
		if len(setups) < coldStarts/2 && time.Since(start) < window {
			d, s, err := e.coldStarts(ctx, 1, clients, in.daemonArgs(e)...)
			if err != nil {
				return err
			}
			e.shutdown(d)
			setups = append(setups, s...)
		}
	}
	rep.ops(len(rounds), 0)
	for _, job := range trainJobs {
		rep.linef("%s_s median %.4f s over %d runs %v", job, median(perJob[job]), len(perJob[job]), perJob[job])
	}
	setup, err := checkTrained(ctx, e, rep, cfg.seed, in, setups)
	if err != nil {
		return err
	}
	busy := 0.0
	for _, r := range rounds {
		busy += r / 1e3
	}
	rep.linef("rounds %d of %v ms (fewer than 40: no tail percentile)", len(rounds), rounds)
	rep.metric("setup_s", setup, "s")
	// Every workload reports the same end-to-end set. Here ops_per_s is the
	// reciprocal of the mean round time and so largely repeats
	// latency_p50_ms (the median round time); it differs from it only when
	// a few rounds are much slower than the rest.
	rep.metric("ops_per_s", float64(len(rounds))/busy, "1/s")
	rep.metric("latency_p50_ms", median(rounds), "ms")
	rep.metric("peak_rss_mb", peak, "MB")
	rep.metric("cpu_ms_per_op", median(cpus), "ms")
	return nil
}

// trainedQuality checks the models the last round wrote: the k-NN block
// purity of the node2vec vectors and the filtered MRR of the TransE model
// on the held-out triples, each against its floor.
func trainedQuality(e *env, rep *report, in *trainInputs) (purity, mrr float64, err error) {
	emb, err := model.OpenEmbeddings(e.path("node2vec.x2vm"))
	if err != nil {
		return 0, 0, err
	}
	vecs := make([][]float64, emb.Rows)
	for v := range vecs {
		vecs[v] = emb.Vector(v)
	}
	emb.Close()
	purity = knnPurity(vecs, func(v int) int { return v % sbmBlocks }, purityK)
	rep.linef("node2vec_knn_purity %.4f ratio (floor %.2f)", purity, purityFloor)
	rep.check(purity >= purityFloor, "node2vec k-NN purity %.4f below floor %.2f", purity, purityFloor)

	g, err := readKGE(e.path("transe.x2vm"))
	if err != nil {
		return 0, 0, err
	}
	known := map[[3]int]bool{}
	for _, t := range in.kg.train {
		known[t] = true
	}
	for _, t := range in.kg.test {
		known[t] = true
	}
	mrr = filteredMRR(g.ent, g.rel, in.kg.test, known)
	rep.linef("transe_filtered_mrr %.4f ratio (floor %.2f)", mrr, mrrFloor)
	rep.check(mrr >= mrrFloor, "TransE filtered MRR %.4f below floor %.2f", mrr, mrrFloor)
	return purity, mrr, nil
}

// checkTrained checks the last round's outputs: block purity of the
// node2vec vectors, filtered MRR of the TransE model on the held-out
// triples, and recall of /neighbors on the index served by a cold-started
// x2vecd. The set-up metric is the median start-up of these cold starts
// and of the ones taken between rounds (before), 21 in all.
func checkTrained(ctx context.Context, e *env, rep *report, seed int64, in *trainInputs, before []float64) (setup float64, err error) {
	if _, _, err := trainedQuality(e, rep, in); err != nil {
		return 0, err
	}
	d, setups, err := e.coldStarts(ctx, coldStarts-len(before), clients, in.daemonArgs(e)...)
	if err != nil {
		return 0, err
	}
	setup = median(append(setups, before...))
	defer e.shutdown(d)
	o, err := newGraphOracle(seed, in.corpus)
	if err != nil {
		return 0, err
	}
	var sum float64
	var buf bytes.Buffer
	for q := 0; q < recallQs; q++ {
		r := newRNG(uint64(seed), tagGraphReq, 1<<40+uint64(q))
		g := perturb(r, in.corpus[r.intn(len(in.corpus))])
		body, _ := json.Marshal(map[string]any{"graph": g.text(), "k": neighborK})
		s, err := send(ctx, d, op{path: "/neighbors", body: body}, &buf)
		if err != nil {
			return 0, err
		}
		if !rep.check(s.status == http.StatusOK, "neighbors query %d answered %d", q, s.status) {
			continue
		}
		var nr neighborsResp
		if err := json.Unmarshal(buf.Bytes(), &nr); err != nil {
			return 0, err
		}
		qv, err := o.sketchOf(g)
		if err != nil {
			return 0, err
		}
		rec, fail := o.checkNeighbors(qv, nr)
		rep.check(fail == "", "neighbors query %d: %s", q, fail)
		sum += rec
	}
	recall := sum / recallQs
	rep.linef("index neighbors_recall10 %.4f ratio over %s queries (floor %.2f)", recall, strconv.Itoa(recallQs), recallFloor)
	rep.check(recall >= recallFloor, "index recall@10 %.4f below floor %.2f", recall, recallFloor)
	return setup, nil
}
