package main

// serve-kge: x2vecd with a TransE model takes /embed {"id"} and
// /link-predict requests from two closed-loop clients. Anchors, relations
// and ids are Zipf-skewed, so most requests hit the per-generation caches.
// It stresses HTTP/JSON and per-request bookkeeping and skips the
// coalescer and the graph engines.
//
// Before the timed window the daemon moves from generation A to its
// `x2vec train -warm` fine-tune B with one /reload, and every client ends
// each round of the window with a /link-predict probe that crosses that
// reload (see linkProbeOp). The window itself sends no /reload: after a
// reload, /link-predict answers from the previous generation's cache
// entries for a number of requests that depends on the seed and on timing,
// which no fixed share of failed operations can hold. The traced run
// measures /reload round trips between A and B under /embed traffic.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/model"
)

const (
	kgSide      = 32 // kgSide² entities
	kgEntities  = kgSide * kgSide
	kgRelations = 12
	linkK       = 10
	serveEpochs = "100" // TransE epochs of generation A and of its fine-tune B
	kgeWarmup   = 1000  // warm-up requests per client before the timed window
	kgeRound    = 20    // requests per client round: 19 from the stream, then the probe
	kgeRSSAt    = 40000 // peak_rss_mb is read when this many timed requests have been answered
	probeK      = 5     // k of the probes; the stream asks for linkK
)

func buildKG(e *env, seed int64) (*kg, string, error) {
	k := genKG(seed, kgSide, kgRelations)
	path := e.path("kg.txt")
	return k, path, writeFile(path, k.text())
}

// kgeStream draws the skewed request mix. The hot ids are spread over the
// id space by a seeded permutation. embedOnly restricts it to /embed.
type kgeStream struct {
	seed             int64
	embedOnly        bool
	entPerm          []int
	entZipf, relZipf *zipf
}

func newKGEStream(seed int64, embedOnly bool) *kgeStream {
	return &kgeStream{
		seed:      seed,
		embedOnly: embedOnly,
		entPerm:   newRNG(uint64(seed), tagKGEReq).perm(kgEntities),
		entZipf:   newZipf(kgEntities, 1.1),
		relZipf:   newZipf(kgRelations, 1.0),
	}
}

// request regenerates request idx: its endpoint, anchor, relation and,
// for /link-predict, whether tails (true) or heads are ranked.
func (s *kgeStream) request(idx int) (ep, anchor, rel int, tailMode bool) {
	r := newRNG(uint64(s.seed), tagKGEReq, uint64(int64(idx)))
	anchor = s.entPerm[s.entZipf.draw(r)]
	if s.embedOnly || r.intn(2) == 0 {
		return epEmbed, anchor, 0, false
	}
	return epLinkPredict, anchor, s.relZipf.draw(r), r.intn(2) == 0
}

func (s *kgeStream) op(idx int) op {
	ep, anchor, rel, tailMode := s.request(idx)
	if ep == epEmbed {
		return op{ep: ep, idx: idx, path: "/embed", body: []byte(`{"id":` + strconv.Itoa(anchor) + `}`)}
	}
	// {"head": H} ranks tails of (H, r, ?); {"tail": T} ranks heads.
	field := "tail"
	if tailMode {
		field = "head"
	}
	body := fmt.Sprintf(`{%q:%d,"relation":%d,"k":%d}`, field, anchor, rel, linkK)
	return op{ep: ep, idx: idx, path: "/link-predict", body: []byte(body)}
}

// linkProbeOp asks for the top probeK tails of (anchor, relation 0). Before
// the window, client c primes its probe by asking for anchor 2c on
// generation A (model_version 1); the daemon then reloads B (version 2),
// and in the window client c ends every round with anchor 2c+1. x2vecd's
// linkKey adds the anchor to version^const, and 2^const is 1^const - 1, so
// (version 2, anchor 2c+1) shares the cache key of (version 1, anchor 2c):
// the probe is answered with generation A's ranking of the other anchor
// and fails its check in every round, whatever the seed or the timing.
// Its k keeps the probe's keys apart from the stream's.
func linkProbeOp(anchor int) op {
	body := fmt.Sprintf(`{"head":%d,"relation":0,"k":%d}`, anchor, probeK)
	return op{ep: epLinkProbe, idx: anchor, path: "/link-predict", body: []byte(body)}
}

// reloadOp is reload number j (from 1): odd reloads switch to generation
// B, even ones back to A, so model_version v serves gens[(v-1)%2].
func reloadOp(j int, gens [2]string) op {
	body, _ := json.Marshal(map[string]string{"model": gens[j%2]})
	return op{ep: epReload, idx: j, path: "/reload", body: body}
}

func trainGenA(ctx context.Context, e *env, kgPath string) (string, error) {
	genA := e.path("gen-a.x2vm")
	_, err := e.run(ctx, "x2vec", "train", "-f32", "-workers", "0", "-epochs", serveEpochs, "-model", genA, "transe", kgPath)
	return genA, err
}

func trainGenB(ctx context.Context, e *env, kgPath, genA string) (string, error) {
	genB := e.path("gen-b.x2vm")
	_, err := e.run(ctx, "x2vec", "train", "-f32", "-workers", "0", "-warm", genA, "-epochs", serveEpochs, "-model", genB, "transe", kgPath)
	return genB, err
}

func serveKGE(ctx context.Context, e *env, cfg *config, rep *report) error {
	k, kgPath, err := buildKG(e, cfg.seed)
	if err != nil {
		return err
	}
	rep.linef("input kg entities=%d relations=%d train=%d test=%d", k.entities, k.relations, len(k.train), len(k.test))
	genA, err := trainGenA(ctx, e, kgPath)
	if err != nil {
		return err
	}
	genB, err := trainGenB(ctx, e, kgPath, genA)
	if err != nil {
		return err
	}
	gens := [2]string{genA, genB}
	d, setups, err := e.coldStarts(ctx, coldStartsBefore, clients, "-model", genA)
	if err != nil {
		return err
	}
	s := newKGEStream(cfg.seed, false)
	res, stats, err := primeAndLoad(ctx, d, rep, s, k, gens, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		e.shutdown(d)
		return err
	}
	e.shutdown(d)
	rep.check(res.rssMB > 0, "the window ended before %d requests were answered, so peak RSS was not read", kgeRSSAt)
	setup, err := e.coldStartsAfter(ctx, setups, "-model", genA)
	if err != nil {
		return err
	}

	st := summarise(res, map[int]bool{epEmbed: true, epLinkPredict: true, epLinkProbe: true})
	rep.linef("requests %d answered, %d not; latency p90 %.3f ms, %s %.3f ms over %d samples (the tail is printed, not gated)",
		st.n, st.failed, st.p90, st.tailLabel, st.tail, st.n)
	for _, ep := range []int{epEmbed, epLinkPredict, epLinkProbe} {
		s := summarise(res, map[int]bool{ep: true})
		rep.linef("endpoint %-18s n=%6d p50=%.3fms %s=%.3fms", endpointNames[ep], s.n, s.p50, s.tailLabel, s.tail)
	}
	rep.linef("daemon stats %s", stats)
	rep.linef("answered per second %v", perSecond(res))
	failed, err := checkKGEAnswers(rep, s, k, gens, res)
	if err != nil {
		return err
	}
	rep.ops(len(res.samples), failed)
	rep.metric("setup_s", setup, "s")
	rep.metric("ops_per_s", st.qps, "1/s")
	rep.metric("latency_p50_ms", st.p50, "ms")
	rep.metric("peak_rss_mb", res.rssMB, "MB")
	rep.metric("cpu_ms_per_op", 1e3*res.cpu/float64(st.n), "ms")
	return nil
}

// primeAndLoad primes each client's probe on generation A, reloads B, and
// runs kgeLoad with the probes. The priming answers and the reload are
// checked but, like the warm-up, are not operations of the window.
func primeAndLoad(ctx context.Context, d *daemon, rep *report, s *kgeStream, k *kg, gens [2]string, dur time.Duration) (*loadResult, string, error) {
	pre := &loadResult{bodies: map[uint64][]byte{}}
	var buf bytes.Buffer
	ops := []op{}
	for c := 0; c < clients; c++ {
		ops = append(ops, linkProbeOp(2*c))
	}
	ops = append(ops, reloadOp(1, gens))
	for _, o := range ops {
		smp, err := send(ctx, d, o, &buf)
		if err != nil {
			return nil, "", err
		}
		pre.samples = append(pre.samples, smp)
		pre.bodies[smp.hash] = append([]byte(nil), buf.Bytes()...)
		if o.ep == epReload {
			rep.linef("reload of generation B before the window: %.3f ms", smp.us/1e3)
		}
	}
	failed, err := checkKGEAnswers(rep, s, k, gens, pre)
	if err != nil {
		return nil, "", err
	}
	rep.check(failed == 0, "%d of the probe primings and the reload failed", failed)
	return kgeLoad(ctx, d, s, gens, loadSpec{dur: dur, round: kgeRound, rssAt: kgeRSSAt}, 0, true)
}

// kgeLoad warms up on a separate stream, runs the timed window and reads
// /stats. With reloadEvery > 0 client 0 also sends a /reload that often,
// alternating between gens[1] and gens[0]; with probes every client round
// ends with the client's /link-predict probe.
func kgeLoad(ctx context.Context, d *daemon, s *kgeStream, gens [2]string, spec loadSpec, reloadEvery time.Duration, probes bool) (*loadResult, string, error) {
	warm := func(c int) nextFunc {
		return func(k int, _ time.Duration) op { return s.op(-1 - (k*clients + c)) }
	}
	if _, err := runLoad(ctx, d, clients, loadSpec{perClient: kgeWarmup}, warm); err != nil {
		return nil, "", err
	}
	timed := func(c int) nextFunc {
		reloads := 0
		return func(k int, elapsed time.Duration) op {
			if probes && k%kgeRound == kgeRound-1 {
				return linkProbeOp(2*c + 1)
			}
			if c == 0 && reloadEvery > 0 && elapsed >= time.Duration(reloads+1)*reloadEvery {
				reloads++
				return reloadOp(reloads, gens)
			}
			return s.op(k*clients + c)
		}
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

// kgRows is one generation's parameters as the model store reads them.
type kgRows struct{ ent, rel [][]float64 }

func readKGE(path string) (*kgRows, error) {
	m, err := model.OpenKGE(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	if err := m.Verify(); err != nil {
		return nil, err
	}
	rows := &kgRows{ent: make([][]float64, m.NumEntities), rel: make([][]float64, m.NumRelations)}
	for i := range rows.ent {
		rows.ent[i] = make([]float64, m.Dim)
		m.EntityInto(rows.ent[i], i)
	}
	for i := range rows.rel {
		rows.rel[i] = make([]float64, m.View().RelWidth())
		m.RelationInto(rows.rel[i], i)
	}
	return rows, nil
}

type embedResp struct {
	ID      *int      `json:"id"`
	Version uint64    `json:"model_version"`
	Vector  []float64 `json:"vector"`
}

type linkResp struct {
	Version  uint64    `json:"model_version"`
	Entities []int     `json:"entities"`
	Scores   []float64 `json:"scores"`
}

// checkKGEAnswers verifies every distinct answer: /embed rows against the
// serving generation's stored row, /link-predict (and the probes) against
// the brute-force filtered TransE scan, /reload versions against the
// reload sequence. gens[1] may be empty when no reload was sent. It
// returns the number of failed operations: requests not answered 200 or
// answered wrongly. A failed probe is counted there and reported; any
// other failure also fails the run.
func checkKGEAnswers(rep *report, s *kgeStream, k *kg, gens [2]string, res *loadResult) (int, error) {
	var rows [2]*kgRows
	for i, g := range gens {
		if g == "" {
			continue
		}
		var err error
		if rows[i], err = readKGE(g); err != nil {
			return 0, err
		}
	}
	genOf := func(version uint64) *kgRows {
		if version == 0 {
			return nil
		}
		return rows[(version-1)%2]
	}
	tails, heads := knownSides(k.train)
	// A request is its endpoint, anchor, relation and side; reloads are
	// told apart by their number. Zipf-skewed requests repeat, so each
	// distinct (request, answer) pair is checked once.
	type request struct {
		ep, anchor, rel int
		tailMode        bool
	}
	requestOf := func(ep, idx int) request {
		switch ep {
		case epReload:
			return request{ep: ep, anchor: idx}
		case epLinkProbe:
			return request{ep: ep, anchor: idx, tailMode: true}
		}
		_, anchor, rel, tailMode := s.request(idx)
		return request{ep, anchor, rel, tailMode}
	}
	// check returns why one answer is wrong, or "".
	check := func(q request, body []byte) string {
		if q.ep == epReload {
			var r struct {
				Version uint64 `json:"model_version"`
			}
			if err := json.Unmarshal(body, &r); err != nil || r.Version != uint64(1+q.anchor) {
				return fmt.Sprintf("reload %d answered %s", q.anchor, body)
			}
			return ""
		}
		anchor, rel, tailMode := q.anchor, q.rel, q.tailMode
		if q.ep == epEmbed {
			var r embedResp
			err := json.Unmarshal(body, &r)
			g := genOf(r.Version)
			if err != nil || r.ID == nil || *r.ID != anchor || g == nil {
				return fmt.Sprintf("embed %d: bad answer %s", anchor, body)
			}
			if !equalVec(r.Vector, g.ent[anchor]) {
				return fmt.Sprintf("embed %d v%d: %v, stored row %v", anchor, r.Version, r.Vector, g.ent[anchor])
			}
			return ""
		}
		topK := linkK
		if q.ep == epLinkProbe {
			topK = probeK
		}
		var r linkResp
		err := json.Unmarshal(body, &r)
		g := genOf(r.Version)
		if err != nil || g == nil {
			return fmt.Sprintf("link-predict %d: bad answer %s", anchor, body)
		}
		skip := map[int]bool{anchor: true}
		known := tails[[2]int{anchor, rel}]
		if !tailMode {
			known = heads[[2]int{rel, anchor}]
		}
		for _, x := range known {
			skip[x] = true
		}
		scores := transeScores(g.ent, g.rel, anchor, rel, tailMode)
		if fail := checkLink(r, filteredTop(scores, skip, topK), scores, skip); fail != "" {
			return fmt.Sprintf("link-predict (%d,%d,tail=%v) v%d: %s", anchor, rel, tailMode, r.Version, fail)
		}
		return ""
	}
	type key struct {
		q    request
		hash uint64
	}
	verdict := map[key]string{}
	failed := 0
	for _, smp := range res.samples {
		if !rep.check(smp.status == http.StatusOK, "%s request %d answered %d", endpointNames[smp.ep], smp.idx, smp.status) {
			failed++
			continue
		}
		kk := key{requestOf(smp.ep, smp.idx), smp.hash}
		fail, done := verdict[kk]
		if !done {
			fail = check(kk.q, res.bodies[smp.hash])
			verdict[kk] = fail
			switch {
			case fail != "" && smp.ep == epLinkProbe:
				rep.linef("link-predict probe of anchor %d answered wrongly (cache key across /reload, fault 4): %s", smp.idx, fail)
			case fail != "":
				rep.check(false, "%s", fail)
			}
		}
		if fail != "" {
			failed++
		}
	}
	return failed, nil
}

// checkLink compares a served ranking with the brute-force one. Entities
// must be distinct and unfiltered, each served score must be the entity's
// true score, and position by position the scores must equal the oracle's
// — so near-ties may swap places but nothing better may be missing.
func checkLink(r linkResp, want []scored, scores []float64, skip map[int]bool) string {
	if len(r.Entities) != len(want) || len(r.Scores) != len(want) {
		return fmt.Sprintf("%d entities, want %d", len(r.Entities), len(want))
	}
	seen := map[int]bool{}
	for i, e := range r.Entities {
		if e < 0 || e >= len(scores) || seen[e] || skip[e] {
			return fmt.Sprintf("entity %d invalid, repeated or filtered", e)
		}
		seen[e] = true
		if !near(r.Scores[i], scores[e], 1e-9) || !near(r.Scores[i], want[i].score, 1e-9) {
			return fmt.Sprintf("position %d: entity %d score %v, its score %v, oracle %v", i, e, r.Scores[i], scores[e], want[i].score)
		}
	}
	return ""
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// knownSides indexes training triples by (head, relation) and (relation,
// tail), the filter of the filtered setting.
func knownSides(triples [][3]int) (tails, heads map[[2]int][]int) {
	tails, heads = map[[2]int][]int{}, map[[2]int][]int{}
	for _, t := range triples {
		tails[[2]int{t[0], t[1]}] = append(tails[[2]int{t[0], t[1]}], t[2])
		heads[[2]int{t[1], t[2]}] = append(heads[[2]int{t[1], t[2]}], t[0])
	}
	return tails, heads
}
