package exp

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/engine"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
)

// EngineModeResult is one side of the engine-vs-sequential comparison,
// serialized into BENCH_engine.json by `keyedeq-bench -json`.
type EngineModeResult struct {
	Mode            string  `json:"mode"` // "sequential" or "engine"
	Pairs           int     `json:"pairs"`
	WallNs          int64   `json:"wall_ns"`
	NsPerOp         int64   `json:"ns_per_op"`
	Nodes           int64   `json:"nodes"`
	ChaseIterations int     `json:"chase_iterations"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	Deduped         int     `json:"deduped"`
	Workers         int     `json:"workers"`
}

// WorkerSweepEntry is one worker count's measurement in the engine
// record's multi-worker section: a fresh engine (cold caches) deciding
// the same corpus with the pool pinned to Workers goroutines.
type WorkerSweepEntry struct {
	Workers int   `json:"workers"`
	WallNs  int64 `json:"wall_ns"`
	NsPerOp int64 `json:"ns_per_op"`
	// Nodes and Holding fingerprint the work done: every entry must
	// report identical values, or the pool size changed verdicts.
	Nodes   int64 `json:"nodes"`
	Holding int   `json:"holding"`
}

// EngineBenchResult is the full regression record: both modes plus the
// derived speedup.  CI's bench smoke gate parses this and fails when the
// engine is slower than the sequential baseline.
type EngineBenchResult struct {
	Families []string `json:"families"`
	// CanonNsPerQuery is each family's canonicalization cost: the mean
	// wall time of engine.CanonicalizeQuery over every distinct
	// presentation of the family's corpus, against the family schema.
	CanonNsPerQuery map[string]int64 `json:"canonicalize_ns_per_query"`
	Seq             EngineModeResult `json:"sequential"`
	Eng             EngineModeResult `json:"engine"`
	// Speedup is sequential wall time over engine wall time.
	Speedup float64 `json:"speedup"`
	// SecondPassHitRate is the engine cache hit rate when the same
	// corpus is decided a second time (1.0 when every pair hits).
	SecondPassHitRate float64 `json:"second_pass_hit_rate"`
	// GoMaxProcs records the parallelism available when the record was
	// taken: the sweep below is only a scaling claim when it exceeds
	// one, so the gate reads this before judging wall times.
	GoMaxProcs int `json:"gomaxprocs"`
	// NumCPU records the machine's logical CPU count alongside
	// GoMaxProcs, so a record taken with an artificially lowered
	// GOMAXPROCS is distinguishable from one taken on a genuinely
	// single-core machine.
	NumCPU int `json:"num_cpu"`
	// Sweep is the multi-worker section: the same corpus decided at
	// several fixed pool sizes.
	Sweep []WorkerSweepEntry `json:"worker_sweep"`
}

// E1EngineBatch compares the batch engine (parallel + canonical cache)
// against the sequential decision procedure on the generated pair
// corpus of every schema family, and reports both the printable table
// and the machine-readable regression record.  cacheSize 0 picks a
// bound fitting the whole corpus; negative disables the verdict cache.
// A non-nil o observes the engine runs (the sequential baseline stays
// unobserved, so exported totals describe the engine's work only).
func E1EngineBatch(pairsPerFamily, workers, cacheSize, seed int, o *obs.Obs) (*Table, *EngineBenchResult) {
	t := &Table{
		ID:    "E1",
		Title: "batch engine vs sequential equivalence (generated pair corpus)",
		Columns: []string{"family", "pairs", "seq wall", "engine wall", "speedup",
			"hit rate", "deduped", "holding", "canon/query"},
	}
	res := &EngineBenchResult{CanonNsPerQuery: make(map[string]int64)}
	var (
		totalSeq, totalEng time.Duration
		totalPairs         int
		totalSecondHits    int
	)
	for fi, fam := range gen.FamilyNames() {
		rng := rand.New(rand.NewSource(int64(seed + fi)))
		f, err := gen.PairCorpus(rng, fam, pairsPerFamily)
		if err != nil {
			t.Note("%s: %v", fam, err)
			continue
		}
		res.Families = append(res.Families, fam)
		jobs := make([]engine.Job, len(f.Pairs))
		for i, p := range f.Pairs {
			jobs[i] = engine.Job{Left: p.Left, Right: p.Right, Op: engine.OpEquivalent}
		}

		// Sequential baseline: one EquivalentUnder call per pair, no
		// sharing of any kind.
		seqStart := time.Now()
		seqHolding := 0
		for _, p := range f.Pairs {
			ok, st, err := containment.EquivalentUnder(p.Left, p.Right, f.Schema, f.Deps)
			if err != nil {
				t.Note("%s: sequential: %v", fam, err)
				continue
			}
			if ok {
				seqHolding++
			}
			res.Seq.Nodes += st.Nodes
			res.Seq.ChaseIterations += st.ChaseIterations
		}
		seqWall := time.Since(seqStart)

		// Engine: canonical dedup + verdict cache + worker pool.
		size := cacheSize
		if size == 0 {
			size = 4 * pairsPerFamily
		}
		e := engine.New(f.Schema, f.Deps, engine.Options{
			Workers:   workers,
			CacheSize: size,
			Now:       time.Now,
			Obs:       o,
		})
		rep := e.Run(context.Background(), jobs)
		res.Eng.Nodes += rep.Nodes
		res.Eng.ChaseIterations += rep.ChaseIterations
		res.Eng.Deduped += rep.Deduped
		res.Eng.Workers = rep.Workers

		second := e.Run(context.Background(), jobs)
		totalSecondHits += second.CacheHits

		cs := e.CacheStats()
		res.Eng.CacheHits += cs.Hits
		res.Eng.CacheMisses += cs.Misses

		totalSeq += seqWall
		totalEng += rep.Wall
		totalPairs += len(jobs)

		canon := canonicalizeCost(f)
		res.CanonNsPerQuery[fam] = canon.Nanoseconds()

		speedup := float64(seqWall) / float64(rep.Wall+1)
		t.Add(fam, len(jobs), seqWall, rep.Wall, speedup,
			cs.HitRate(), rep.Deduped, rep.Holding, canon)
		if rep.Holding != seqHolding {
			t.Note("%s: VERDICT MISMATCH: engine holding=%d sequential=%d", fam, rep.Holding, seqHolding)
		}
	}
	res.Seq.Mode, res.Eng.Mode = "sequential", "engine"
	res.Seq.Pairs, res.Eng.Pairs = totalPairs, totalPairs
	res.Seq.WallNs, res.Eng.WallNs = totalSeq.Nanoseconds(), totalEng.Nanoseconds()
	if totalPairs > 0 {
		res.Seq.NsPerOp = totalSeq.Nanoseconds() / int64(totalPairs)
		res.Eng.NsPerOp = totalEng.Nanoseconds() / int64(totalPairs)
		// One division over the summed counts: averaging per-family
		// ratios accumulates floating-point error (six families of 1.0
		// summed to 0.99...9), tripping the exact-replay gate.
		res.SecondPassHitRate = float64(totalSecondHits) / float64(totalPairs)
	}
	if totalEng > 0 {
		res.Speedup = float64(totalSeq) / float64(totalEng)
	}
	if res.Eng.CacheHits+res.Eng.CacheMisses > 0 {
		res.Eng.CacheHitRate = float64(res.Eng.CacheHits) / float64(res.Eng.CacheHits+res.Eng.CacheMisses)
	}
	t.Note("total: seq %s, engine %s, speedup %.2fx, second-pass hit rate %.2f",
		totalSeq.Round(time.Millisecond), totalEng.Round(time.Millisecond),
		res.Speedup, res.SecondPassHitRate)
	return t, res
}

// canonicalizeCost is the mean time engine.CanonicalizeQuery takes over
// every distinct presentation of f's corpus, against f's schema.
// Presentations are told apart by their printed text, which is coarser
// than the exact presentation engine.Run keys its memo by: it prints a
// variable named like a constant as that constant, and an unnamed head
// relation as Q.  The generated corpora do neither, so there the two
// counts agree.  It repeats whole passes until they add up to
// canonMinWall, so a family of a few fast queries is still timed over
// many calls.
func canonicalizeCost(f *gen.Family) time.Duration {
	seen := make(map[string]bool)
	var qs []*cq.Query
	for _, p := range f.Pairs {
		for _, q := range []*cq.Query{p.Left, p.Right} {
			if text := q.String(); !seen[text] {
				seen[text] = true
				qs = append(qs, q)
			}
		}
	}
	if len(qs) == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < canonMinWall {
		for _, q := range qs {
			engine.CanonicalizeQuery(q, f.Schema)
		}
		calls += len(qs)
	}
	return time.Since(start) / time.Duration(calls)
}

// canonMinWall is how long canonicalizeCost times each family.
const canonMinWall = 50 * time.Millisecond

// E1WorkerSweep decides the same generated corpus once per worker
// count, each time on a fresh engine (cold verdict cache, cold
// canonical dedup), and reports wall time and the work fingerprint per
// count.  Every entry must land on identical Nodes and Holding totals:
// the pool size may move wall time, never verdicts.  The caller stores
// the sweep next to runtime.GOMAXPROCS(0) — on a single-core runner
// the wall times are honest but carry no scaling information.
func E1WorkerSweep(pairsPerFamily, cacheSize, seed int, counts []int) (*Table, []WorkerSweepEntry, error) {
	t := &Table{
		ID:      "E2",
		Title:   "engine worker sweep (same corpus, fixed pool sizes)",
		Columns: []string{"workers", "wall", "ns/op", "nodes", "holding"},
	}
	type famJobs struct {
		f    *gen.Family
		jobs []engine.Job
	}
	var fams []famJobs
	totalPairs := 0
	for fi, fam := range gen.FamilyNames() {
		rng := rand.New(rand.NewSource(int64(seed + fi)))
		f, err := gen.PairCorpus(rng, fam, pairsPerFamily)
		if err != nil {
			return nil, nil, err
		}
		jobs := make([]engine.Job, len(f.Pairs))
		for i, p := range f.Pairs {
			jobs[i] = engine.Job{Left: p.Left, Right: p.Right, Op: engine.OpEquivalent}
		}
		fams = append(fams, famJobs{f: f, jobs: jobs})
		totalPairs += len(jobs)
	}
	var sweep []WorkerSweepEntry
	for _, workers := range counts {
		entry := WorkerSweepEntry{Workers: workers}
		start := time.Now()
		for _, fj := range fams {
			size := cacheSize
			if size == 0 {
				size = 4 * pairsPerFamily
			}
			e := engine.New(fj.f.Schema, fj.f.Deps, engine.Options{
				Workers:   workers,
				CacheSize: size,
				Now:       time.Now,
			})
			rep := e.Run(context.Background(), fj.jobs)
			entry.Nodes += rep.Nodes
			entry.Holding += rep.Holding
		}
		entry.WallNs = time.Since(start).Nanoseconds()
		if totalPairs > 0 {
			entry.NsPerOp = entry.WallNs / int64(totalPairs)
		}
		sweep = append(sweep, entry)
		t.Add(entry.Workers, time.Duration(entry.WallNs), entry.NsPerOp, entry.Nodes, entry.Holding)
	}
	t.Note("gomaxprocs %d, %d pairs per pass", runtime.GOMAXPROCS(0), totalPairs)
	return t, sweep, nil
}
