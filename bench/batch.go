package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"keyedeq/internal/cq"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/store"
)

// batchFamily is the text of one engine.Run call: a schema and its pairs.
type batchFamily struct {
	schema string
	pairs  []pairText
}

// call is the input of one engine.Run call.
type call struct {
	sch    *schema.Schema
	deps   []fd.FD
	jobs   []engine.Job
	expect []expect
}

// load parses batch texts into calls and makes each call's engine: the
// set-up a batch user pays before the first engine.Run, and the batch
// path's setup_s.
func load(fams []batchFamily) ([]call, error) {
	out := make([]call, len(fams))
	for i, f := range fams {
		s, err := schema.Parse(f.schema)
		if err != nil {
			return nil, err
		}
		c := call{sch: s, deps: fd.KeyFDs(s), jobs: make([]engine.Job, len(f.pairs)), expect: make([]expect, len(f.pairs))}
		for k, p := range f.pairs {
			left, err := cq.Parse(p.left)
			if err != nil {
				return nil, err
			}
			right, err := cq.Parse(p.right)
			if err != nil {
				return nil, err
			}
			c.jobs[k] = engine.Job{Left: left, Right: right, Op: engine.OpEquivalent}
			c.expect[k] = p.expect
		}
		engine.New(s, c.deps, engine.Options{Workers: workers})
		out[i] = c
	}
	return out, nil
}

// timedLoad loads fams cfg.boots times, timing each load, and returns
// the last load's calls.
func timedLoad(cfg config, fams []batchFamily) ([]call, *scaler, error) {
	var (
		calls []call
		err   error
	)
	setup := newScaler(newRefSpeed())
	for i := 0; i < cfg.boots; i++ {
		calls = nil
		runtime.GC()
		start := now()
		if calls, err = load(fams); err != nil {
			return nil, nil, err
		}
		took := now().Sub(start)
		setup.piece(1, took.Seconds(), []time.Duration{took})
	}
	return calls, setup, nil
}

// lane runs batches on engines configured one way: untraced (o nil) or
// traced.  With persistent set, each call position keeps one engine for
// the whole run; otherwise every call gets a fresh engine.
type lane struct {
	o          *obs.Obs
	persistent bool
	engines    []*engine.Engine

	pairs, failed, hits, deduped int64
	firstErr                     error
	wall                         time.Duration   // Σ engine.Run wall
	batches                      []time.Duration // Σ wall of each batch: its latency
	alloc                        uint64          // Σ TotalAlloc growth inside engine.Run
	records                      []store.Record  // computed verdicts, up to recordCap
	recordCap                    int
	// last holds the latest batch's engines and reports, so the live
	// heap read after the window counts what a batch user still holds.
	last []interface{}
}

// run decides one batch: one timed engine.Run per call, every result
// checked against the expected verdicts.
func (l *lane) run(batch []call) {
	l.last = l.last[:0]
	var total time.Duration
	for ci, c := range batch {
		if ci == len(l.engines) {
			l.engines = append(l.engines, nil)
		}
		e := l.engines[ci]
		if e == nil || !l.persistent {
			e = engine.New(c.sch, c.deps, engine.Options{Workers: workers, Obs: l.o})
			l.engines[ci] = e
		}
		before := readMem()
		start := now()
		rep := e.Run(context.Background(), c.jobs)
		wall := now().Sub(start)
		after := readMem()
		total += wall
		l.alloc += after.TotalAlloc - before.TotalAlloc
		l.pairs += int64(rep.Pairs)
		l.hits += int64(rep.CacheHits)
		l.deduped += int64(rep.Deduped)
		l.check(c, rep)
		l.last = append(l.last, e, rep)
	}
	l.wall += total
	l.batches = append(l.batches, total)
}

func (l *lane) check(c call, rep *engine.Report) {
	fp := ""
	for k, r := range rep.Results {
		err := r.Err
		if x := c.expect[k]; err == nil && x.known && r.Holds != x.want {
			err = fmt.Errorf("verdict %v, oracle says %v: %s vs %s", r.Holds, x.want, c.jobs[k].Left, c.jobs[k].Right)
		}
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = err
			}
			continue
		}
		if len(l.records) < l.recordCap && !r.CacheHit && !r.Deduped {
			if fp == "" {
				fp = engine.Fingerprint(c.sch, c.deps)
			}
			l.records = append(l.records, store.Record{Key: fp + storeKeySep + r.PairKey, Holds: r.Holds, Stats: r.Stats})
		}
	}
}

func (l *lane) throughput() float64 { return float64(l.pairs) / l.wall.Seconds() }

// tally adds the lane's pairs to the result and reports its first
// failure on standard error.
func (l *lane) tally(res *result) error {
	res.Attempted += l.pairs
	res.Failed += l.failed
	if l.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %d of %d pairs failed; first: %v\n", l.failed, l.pairs, l.firstErr)
	}
	if l.pairs == 0 {
		return fmt.Errorf("no pair was decided")
	}
	return nil
}

// batchPlan is the input of one batch-* run.
type batchPlan struct {
	setup      *scaler                // one piece per set-up
	persistent bool                   // one engine per call position for the whole run
	next       func() ([]call, error) // the next batch of the run's sequence
	texts      []decideBody           // inputs for the outside-timed parse and schema metrics
}

// runBatch measures one batch-* workload for cfg.window.  Untraced, one
// lane runs the batches.  Traced, an untraced and a traced lane take
// turns on every batch, so the throughput baseline of obs.trace_overhead
// sees the same inputs under the same conditions.
func runBatch(cfg config, res *result, traceOut io.Writer, pl batchPlan) error {
	lanes := []*lane{{persistent: pl.persistent}}
	var sink *layerSink
	if cfg.trace {
		sink = newLayerSink(traceOut)
		lanes = append(lanes, &lane{persistent: pl.persistent, recordCap: cfg.storeAppends,
			o: &obs.Obs{Reg: obs.NewRegistry(), Sink: sink, Now: now}})
	}
	// Untraced, the window is cut into pieces of about window/pieces,
	// each closed by a reference reading.
	var sc *scaler
	if !cfg.trace {
		sc = pl.setup.next()
	}
	var pairs0 int64
	var wall0 time.Duration
	var batches0 int
	closePiece := func() {
		l := lanes[0]
		sc.piece(int(l.pairs-pairs0), (l.wall - wall0).Seconds(), l.batches[batches0:])
		pairs0, wall0, batches0 = l.pairs, l.wall, len(l.batches)
	}
	runtime.GC()
	pieceStart := now()
	for start := now(); now().Sub(start) < cfg.window; {
		batch, err := pl.next()
		if err != nil {
			return err
		}
		for _, l := range lanes {
			l.run(batch)
		}
		if sc != nil && now().Sub(pieceStart) >= cfg.window/pieces {
			closePiece()
			pieceStart = now()
		}
	}
	if sc != nil && batches0 < len(lanes[0].batches) {
		closePiece()
	}
	runtime.GC()
	end := readMem()
	for _, l := range lanes {
		if err := l.tally(res); err != nil {
			return err
		}
	}
	if !cfg.trace {
		l := lanes[0]
		sc.set(res)
		pl.setup.setSetup(res)
		res.set("alloc_kib_per_op", float64(l.alloc)/1024/float64(l.pairs), int(l.pairs))
		res.set("live_heap_mib", float64(end.HeapAlloc)/(1<<20), 0)
		runtime.KeepAlive(l)
		return nil
	}

	if err := sink.stop(); err != nil {
		return err
	}
	base, traced := lanes[0], lanes[1]
	sink.sums.setShares(res, float64(traced.wall.Nanoseconds())*workers, false)
	res.set("engine.cache_hit_ratio", float64(traced.hits)/float64(traced.pairs), int(traced.pairs))
	res.set("engine.dedup_ratio", float64(traced.deduped)/float64(traced.pairs), int(traced.pairs))
	res.set("obs.trace_overhead", base.throughput()/traced.throughput()-1, 0)
	if err := timeTexts(res, pl.texts); err != nil {
		return err
	}
	return timeStore(cfg, res, traced.records, "")
}

// textItems lists a batch's pairs with their schema text, for timeTexts.
func textItems(fams []batchFamily, max int) []decideBody {
	var out []decideBody
	for _, f := range fams {
		for _, p := range f.pairs {
			if len(out) == max {
				return out
			}
			out = append(out, decideBody{Schema: f.schema, Left: p.left, Right: p.right})
		}
	}
	return out
}

// dedupCorpus is the E1 corpus in text form, every pair's verdict set by
// the oracle once per distinct canonical pair.
func dedupCorpus(cfg config) ([]batchFamily, error) {
	fams, err := corpus(cfg.dedupPerFamily)
	if err != nil {
		return nil, err
	}
	out := make([]batchFamily, len(fams))
	for fi, f := range fams {
		verdicts := map[string]bool{}
		bf := batchFamily{schema: f.Schema.String(), pairs: make([]pairText, len(f.Pairs))}
		for i, p := range f.Pairs {
			k1 := engine.CanonicalizeQuery(p.Left, f.Schema).Key
			k2 := engine.CanonicalizeQuery(p.Right, f.Schema).Key
			if k2 < k1 {
				k1, k2 = k2, k1
			}
			want, ok := verdicts[k1+"\x00"+k2]
			if !ok {
				if want, err = oracle(p.Left, p.Right, f.Schema, f.Deps); err != nil {
					return nil, fmt.Errorf("oracle on %s: %v", p.Note, err)
				}
				verdicts[k1+"\x00"+k2] = want
			}
			bf.pairs[i] = pairText{left: p.Left.String(), right: p.Right.String(), expect: expect{want: want, known: true}}
		}
		out[fi] = bf
	}
	return out, nil
}

// dedupBatches is the batch-dedup sequence: every batch is the whole
// corpus, with the job order of every call shuffled by the seed.
func dedupBatches(corpus []call, seed int64) func() ([]call, error) {
	rng := newRand(seed)
	return func() ([]call, error) {
		out := make([]call, len(corpus))
		for i, c := range corpus {
			p := call{sch: c.sch, deps: c.deps, jobs: make([]engine.Job, len(c.jobs)), expect: make([]expect, len(c.jobs))}
			for k, j := range rng.Perm(len(c.jobs)) {
				p.jobs[k], p.expect[k] = c.jobs[j], c.expect[j]
			}
			out[i] = p
		}
		return out, nil
	}
}

// searchBatches is the batch-search sequence: one call of n fresh pairs
// per batch.
func searchBatches(seed int64, n, sample int) func() ([]call, error) {
	s := gen.GraphSchema()
	rng := newRand(seed)
	return func() ([]call, error) {
		pairs, err := searchPairs(rng, n, sample)
		if err != nil {
			return nil, err
		}
		c := call{sch: s, jobs: make([]engine.Job, len(pairs)), expect: make([]expect, len(pairs))}
		for i, p := range pairs {
			c.jobs[i] = engine.Job{Left: p.left, Right: p.right, Op: engine.OpEquivalent}
			c.expect[i] = p.expect
		}
		return []call{c}, nil
	}
}

// runBatchDedup: a fresh engine per call, so only the dedup inside one
// engine.Run saves work.
func runBatchDedup(cfg config, res *result, traceOut io.Writer) error {
	fams, err := dedupCorpus(cfg)
	if err != nil {
		return err
	}
	corpus, setup, err := timedLoad(cfg, fams)
	if err != nil {
		return err
	}
	return runBatch(cfg, res, traceOut, batchPlan{setup: setup, next: dedupBatches(corpus, cfg.seed),
		texts: textItems(fams, cfg.timedItems)})
}

// runBatchSearch: one engine per lane answers every call.  Set-up parses
// the texts of the first batch, as a user handing it over in text would.
func runBatchSearch(cfg config, res *result, traceOut io.Writer) error {
	first, err := searchBatches(cfg.seed, cfg.searchBatch, cfg.oracleSample)()
	if err != nil {
		return err
	}
	c := first[0]
	fam := batchFamily{schema: c.sch.String(), pairs: make([]pairText, len(c.jobs))}
	for i, j := range c.jobs {
		fam.pairs[i] = pairText{left: j.Left.String(), right: j.Right.String(), expect: c.expect[i]}
	}
	_, setup, err := timedLoad(cfg, []batchFamily{fam})
	if err != nil {
		return err
	}
	return runBatch(cfg, res, traceOut, batchPlan{setup: setup, persistent: true,
		next: searchBatches(cfg.seed, cfg.searchBatch, cfg.oracleSample), texts: textItems([]batchFamily{fam}, cfg.timedItems)})
}
