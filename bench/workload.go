package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/schema"
)

// corpusSeed fixes the gen.PairCorpus draws (family fi uses corpusSeed+fi,
// as the E1 record in BENCH_engine.json does).  The run seed varies the
// request texts, their order and the generated pairs; the corpus stays
// put so every seed measures the same mix of query shapes.
const corpusSeed = 11

// config sizes one run.  defaultConfig holds the recorded sizes; tests
// shrink them.
type config struct {
	seed   int64
	window time.Duration // measured time of one run
	trace  bool
	dir    string // verdict logs

	boots          int     // set-ups per setup_s reading (median taken)
	fillerRecords  int     // records of the log the decide-* daemons boot on
	hotPerFamily   int     // decide-hot pool pairs per gen.PairCorpus family
	hotRequests    int     // distinct decide-hot bodies, cycled
	coldRate       float64 // decide-cold pairs made per second of window (above its throughput)
	dedupPerFamily int     // batch-dedup pairs per family (the E1 corpus)
	searchBatch    int     // batch-search pairs per engine.Run call
	oracleSample   int     // decide-cold and batch-search check 1 in this many pairs
	storeAppends   int     // minimum re-appends for the store metrics
	timedItems     int     // inputs timed from outside for the parse and schema metrics
}

func defaultConfig(seed int64, window time.Duration, trace bool, dir string) config {
	return config{
		seed: seed, window: window, trace: trace, dir: dir,
		boots:          5,
		fillerRecords:  50000,
		hotPerFamily:   40,
		hotRequests:    16384,
		coldRate:       3000,
		dedupPerFamily: 300,
		searchBatch:    1000,
		oracleSample:   8,
		storeAppends:   4096,
		timedItems:     2000,
	}
}

// workload is one traffic mix; BENCHMARK.json and README.md say why
// each was chosen.
type workload struct {
	name string
	run  func(cfg config, res *result, traceOut io.Writer) error
}

var workloads = []workload{
	{"decide-hot", runDecideHot},
	{"decide-cold", runDecideCold},
	{"batch-dedup", runBatchDedup},
	{"batch-search", runBatchSearch},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// expect is the verdict a pair must get, when known: from the oracle or
// by construction.
type expect struct {
	want, known bool
}

// pairText is one decision in text form.
type pairText struct {
	left, right string
	expect
}

// decideBody is the /v1/decide request.
type decideBody struct {
	Schema string `json:"schema"`
	Left   string `json:"left"`
	Right  string `json:"right"`
	Op     string `json:"op"`
}

// request is one pre-encoded /v1/decide body.  The harness keeps only
// these bytes, never the parsed queries, so the heap figures measure the
// daemon rather than the load generator.
type request struct {
	body []byte
	expect
}

func encodeRequest(schemaText string, p pairText) (request, error) {
	body, err := json.Marshal(decideBody{Schema: schemaText, Left: p.left, Right: p.right, Op: "equiv"})
	return request{body: body, expect: p.expect}, err
}

// oracle decides q1 ≡ q2 with the naive reference search.
func oracle(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, error) {
	ok, _, err := containment.EquivalentUnderMode(q1, q2, s, deps, cq.SearchNaive)
	return ok, err
}

// newRand is the benchmark's source of randomness: each generator is
// seeded from the run seed or from corpusSeed.
func newRand(seed int64) *rand.Rand {
	//keyedeq:allow norand -- the benchmark seeds its generators itself
	return rand.New(rand.NewSource(seed))
}

// corpus draws n pairs from every gen.PairCorpus family.
func corpus(n int) ([]*gen.Family, error) {
	var out []*gen.Family
	for fi, name := range gen.FamilyNames() {
		f, err := gen.PairCorpus(newRand(int64(corpusSeed+fi)), name, n)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// hotRequests builds the decide-hot stream: a Zipf(s=1.1) draw over the
// pool of corpus pairs per request, each side a fresh alpha variant.  The
// pool order is shuffled once with the corpus seed so the hottest ranks
// do not all fall in one family.
func hotRequests(cfg config) ([]request, error) {
	type entry struct {
		f    *gen.Family
		p    gen.Pair
		want bool
	}
	fams, err := corpus(cfg.hotPerFamily)
	if err != nil {
		return nil, err
	}
	var pool []entry
	for _, f := range fams {
		for _, p := range f.Pairs {
			want, err := oracle(p.Left, p.Right, f.Schema, f.Deps)
			if err != nil {
				return nil, fmt.Errorf("oracle on %s: %v", p.Note, err)
			}
			pool = append(pool, entry{f, p, want})
		}
	}
	newRand(corpusSeed).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	rng := newRand(cfg.seed)
	//keyedeq:allow norand -- drawn from the run's seeded generator
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	reqs := make([]request, cfg.hotRequests)
	for i := range reqs {
		e := pool[zipf.Uint64()]
		p := pairText{
			left:   gen.AlphaVariant(rng, e.p.Left).String(),
			right:  gen.AlphaVariant(rng, e.p.Right).String(),
			expect: expect{want: e.want, known: true},
		}
		if reqs[i], err = encodeRequest(e.f.Schema.String(), p); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// coldGen makes decide-cold pairs: wide keyed chains of 8–20 atoms and
// graph chains of 6–16 atoms, half of them equivalent by construction.
// No two pairs are the same up to renaming, and no pair's sides are
// isomorphic (the engine would answer it without chase or search), so
// every request is a cache miss that runs the whole decision.
type coldGen struct {
	rng    *rand.Rand
	sample int
	seen   map[string]bool
	wide   *schema.Schema
	graph  *schema.Schema
	wideFD []fd.FD
}

func newColdGen(seed int64, sample int) *coldGen {
	w := gen.WideSchema()
	return &coldGen{rng: newRand(seed), sample: sample, seen: map[string]bool{},
		wide: w, graph: gen.GraphSchema(), wideFD: fd.KeyFDs(w)}
}

// requests returns the next n pairs as encoded requests.
func (g *coldGen) requests(n int) ([]request, error) {
	out := make([]request, 0, n)
	for len(out) < n {
		s, p, ok, err := g.pair()
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		r, err := encodeRequest(s.String(), p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// pair draws one candidate; ok is false when it repeats an earlier pair
// or its sides are isomorphic.
func (g *coldGen) pair() (*schema.Schema, pairText, bool, error) {
	rng := g.rng
	equiv := rng.Intn(2) == 0
	var (
		l, r *cq.Query
		s    *schema.Schema
		deps []fd.FD
		key  string
	)
	if rng.Intn(2) == 0 {
		s, deps = g.wide, g.wideFD
		n := 8 + rng.Intn(13)
		l = gen.WideChainVariant(rng, n, rng.Intn(3))
		if equiv {
			r = withRedundantWideAtom(rng, l, n)
		} else {
			r = gen.WideChainVariant(rng, n, rng.Intn(3))
		}
		// Wide variants draw cross links from n²·16 choices, so two draws
		// that print differently are, in practice, never isomorphic: the
		// printed pair is key enough and far cheaper to make.
		k1, k2 := l.String(), r.String()
		if k1 == k2 {
			return nil, pairText{}, false, nil
		}
		key = "W\x00" + k1 + "\x00" + k2
	} else {
		s = g.graph
		n := 6 + rng.Intn(11)
		l = gen.RandomChainVariant(rng, n, 1+rng.Intn(3))
		// Every RandomChainVariant of length n is equivalent to the plain
		// chain (its extra atoms duplicate chain atoms); lengths differ
		// in the inequivalent half.
		m := n
		if !equiv {
			m = n + 1
		}
		r = gen.RandomChainVariant(rng, m, 1+rng.Intn(3))
		// Short chains with few extra atoms repeat often up to
		// isomorphism, which only canonical keys see.
		k1, k2 := engine.CanonicalizeQuery(l, s).Key, engine.CanonicalizeQuery(r, s).Key
		if k1 == k2 {
			return nil, pairText{}, false, nil
		}
		key = "E\x00" + k1 + "\x00" + k2
	}
	if g.seen[key] {
		return nil, pairText{}, false, nil
	}
	g.seen[key] = true
	p := pairText{
		left:   gen.AlphaVariant(rng, l).String(),
		right:  gen.AlphaVariant(rng, r).String(),
		expect: expect{want: equiv, known: equiv},
	}
	if rng.Intn(g.sample) == 0 {
		want, err := oracle(l, r, s, deps)
		if err != nil {
			return nil, pairText{}, false, err
		}
		if equiv && !want {
			return nil, pairText{}, false, fmt.Errorf("constructed pair is not equivalent: %s vs %s", l, r)
		}
		p.expect = expect{want: want, known: true}
	}
	return s, p, true, nil
}

// withRedundantWideAtom returns q (a WideChainVariant of n atoms) plus one
// more atom whose key and last position equal those of chain atom i.  The
// key dependency forces the new atom onto atom i, so the result is
// equivalent to q under the keys without being isomorphic to it.
func withRedundantWideAtom(rng *rand.Rand, q *cq.Query, n int) *cq.Query {
	out := q.Clone()
	i := rng.Intn(n)
	vars := []cq.Var{"BK", "BA1", "BA2", "BA3", "BA4", "BL"}
	out.Body = append(out.Body, cq.Atom{Rel: "W", Vars: vars})
	out.Eqs = append(out.Eqs,
		cq.Equality{Left: cq.Var(fmt.Sprintf("K%d", i)), Right: cq.Term{Var: "BK"}},
		cq.Equality{Left: cq.Var(fmt.Sprintf("L%d", i)), Right: cq.Term{Var: "BL"}},
	)
	return out
}

// densePattern is a random dense cyclic graph pattern over
// gen.GraphSchema: n = 5–8 nodes on a directed Hamiltonian cycle plus
// random further edges up to m = n … n+n(n-1)/2 in all, one E atom per
// edge, head = node 0.
func densePattern(rng *rand.Rand) *cq.Query {
	type edge struct{ u, v int }
	n := 5 + rng.Intn(4)
	m := n + rng.Intn(n*(n-1)/2+1)
	have := make(map[edge]bool, m)
	edges := make([]edge, 0, m)
	for i := 0; i < n; i++ {
		e := edge{i, (i + 1) % n}
		have[e] = true
		edges = append(edges, e)
	}
	for len(edges) < m {
		e := edge{rng.Intn(n), rng.Intn(n)}
		if e.u == e.v || have[e] {
			continue
		}
		have[e] = true
		edges = append(edges, e)
	}
	q := &cq.Query{HeadRel: "V"}
	nodeVar := make([]cq.Var, n)
	occur := func(node int, v cq.Var) {
		if nodeVar[node] == "" {
			nodeVar[node] = v
			return
		}
		q.Eqs = append(q.Eqs, cq.Equality{Left: nodeVar[node], Right: cq.Term{Var: v}})
	}
	for k, e := range edges {
		s, d := cq.Var(fmt.Sprintf("S%d", k)), cq.Var(fmt.Sprintf("D%d", k))
		q.Body = append(q.Body, cq.Atom{Rel: "E", Vars: []cq.Var{s, d}})
		occur(e.u, s)
		occur(e.v, d)
	}
	q.Head = []cq.Term{{Var: nodeVar[0]}}
	return q
}

// queryPair is one generated decision.
type queryPair struct {
	left, right *cq.Query
	expect
}

// searchPairs makes one batch-search call's pairs: a third are alpha
// variants of one pattern (they hold by construction), the rest pair two
// independent patterns and are checked by the oracle 1 in sample times.
func searchPairs(rng *rand.Rand, n, sample int) ([]queryPair, error) {
	s := gen.GraphSchema()
	out := make([]queryPair, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			q := densePattern(rng)
			out[i] = queryPair{gen.AlphaVariant(rng, q), gen.AlphaVariant(rng, q), expect{want: true, known: true}}
			continue
		}
		out[i] = queryPair{left: densePattern(rng), right: densePattern(rng)}
		if rng.Intn(sample) == 0 {
			want, err := oracle(out[i].left, out[i].right, s, nil)
			if err != nil {
				return nil, err
			}
			out[i].expect = expect{want: want, known: true}
		}
	}
	return out, nil
}
