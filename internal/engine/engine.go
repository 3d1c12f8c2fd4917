package engine

import (
	"context"
	"encoding/binary"
	"hash/maphash"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/invariant"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Op selects the decision a Job asks for.
type Op int

const (
	// OpEquivalent decides Left ≡ Right (mutual containment).
	OpEquivalent Op = iota
	// OpContained decides Left ⊑ Right.
	OpContained
)

// String renders the op tag used inside pair keys.
func (o Op) String() string {
	if o == OpContained {
		return "sub"
	}
	return "equ"
}

// Options configures an Engine.
type Options struct {
	// Workers sizes the batch worker pool; 0 means runtime.GOMAXPROCS,
	// 1 means strictly sequential execution.
	Workers int
	// CacheSize bounds the verdict cache (entries); 0 means the
	// default of 4096, and a negative size turns caching, and with it
	// the Store, off.  A Pool has one cache of this size, shared by
	// every engine it hands out.
	CacheSize int
	// JobTimeout bounds each pair's homomorphism searches; 0 means no
	// per-job timeout.  In Run, freeze and chase run under the batch
	// context, because their artifacts are shared; Decide's one-pair
	// batch runs them under the job timeout too.
	JobTimeout time.Duration
	// Now, when set, timestamps batch runs so Report.Wall is filled.
	// It is injected (rather than calling time.Now here) because
	// library code must stay clock-free; command layers pass time.Now.
	Now func() time.Time
	// Obs, when set, is installed into every Decide/Run context so the
	// whole pipeline — canonicalization, chase, planning, search —
	// reports through its registry and sink.  When nil, an Obs already
	// carried by the caller's context is used instead; with neither the
	// pipeline runs unobserved at near-zero cost.
	Obs *obs.Obs
	// Store, when set (and caching is enabled), receives every freshly
	// computed verdict at the moment it enters the cache — never cache
	// hits, batch dedups, warm loads, or errored pairs — so a daemon
	// can persist decisions and replay them into the cache on restart.
	// It receives the verdict under its cache key: the pair key for an
	// engine of its own, the record key for a Pool's engine.  Append
	// failures are counted (CStoreAppendErrors) and otherwise ignored:
	// persistence is best-effort relative to serving.
	Store VerdictStore
}

// VerdictStore receives computed verdicts for persistence.  Concurrent
// Decide and Run calls each call Put, so implementations must be safe
// for concurrent use.  It is defined here (rather than importing the
// store package) so the engine stays decoupled from any one on-disk
// format.
type VerdictStore interface {
	Put(key string, v Verdict) error
}

// DefaultCacheSize is the verdict cache bound used when Options.CacheSize
// is zero.
const DefaultCacheSize = 4096

// Job is one decision request in a batch.
type Job struct {
	Left, Right *cq.Query
	Op          Op
}

// Result is the outcome of one Job.
type Result struct {
	// Holds is the decision (Left ≡ Right or Left ⊑ Right).
	Holds bool
	// CacheHit reports the verdict came from the cache (Stats then
	// records the original computation's work, not new work).
	CacheHit bool
	// Deduped reports the verdict was computed once for another job of
	// the same batch with the same canonical pair.
	Deduped bool
	// Err is set when the pair was undecidable (validation failure,
	// cancellation, timeout).
	Err error
	// Stats records the work performed for this pair.
	Stats containment.Stats
	// PairKey is the canonical pair key (exposed for tests and
	// debugging).
	PairKey string
}

// Report aggregates a batch run.
type Report struct {
	Results []Result
	// Pairs is len(Results); Holding counts true verdicts; Errors
	// counts failed jobs.
	Pairs, Holding, Errors int
	// Computed counts pairs actually decided by search; CacheHits and
	// Deduped count pairs answered without new work.
	Computed, CacheHits, Deduped int
	// Nodes and ChaseIterations total the new work performed.
	Nodes           int64
	ChaseIterations int
	// Cache snapshots the engine cache after the run.
	Cache CacheStats
	// Wall is the elapsed wall time (zero unless Options.Now was set).
	Wall time.Duration
	// Workers is the pool size the batch ran with.
	Workers int
}

// Engine decides conjunctive query equivalence and containment over a
// fixed schema and dependency set, with canonical-form caching and
// parallel batch execution.  An Engine is safe for concurrent use.
type Engine struct {
	s    *schema.Schema
	deps []fd.FD
	opts Options
	// cache maps cache keys to verdicts; nil when disabled.  A Pool's
	// engines all share the Pool's cache.
	cache *verdictCache
	// prefix opens every cache and store key: empty for an engine of its
	// own, Fingerprint and recordSep for a Pool's engine, whose cache
	// other schemas share.
	prefix string
}

// New builds an engine for deciding queries over s under deps (pass
// fd.KeyFDs(s) for the paper's keyed setting, nil for plain CQ
// equivalence).
func New(s *schema.Schema, deps []fd.FD, opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	e := &Engine{s: s, deps: deps, opts: opts}
	if opts.CacheSize > 0 {
		e.cache = newVerdictCache(opts.CacheSize)
	}
	return e
}

// Schema returns the schema the engine decides over.
func (e *Engine) Schema() *schema.Schema { return e.s }

// CacheStats snapshots the verdict cache (zero when caching is off).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// cachePut enters a freshly computed verdict into the cache and
// forwards it to the persistence store, counting appends and append
// failures.  Call sites guard on e.cache != nil, so a disabled cache
// also disables persistence (nothing could be warm-loaded back anyway).
func (e *Engine) cachePut(o *obs.Obs, key string, v Verdict) {
	e.cache.put(key, v)
	if e.opts.Store == nil {
		return
	}
	if err := e.opts.Store.Put(key, v); err != nil {
		o.C(obs.CStoreAppendErrors).Add(1)
		return
	}
	o.C(obs.CStoreAppends).Add(1)
}

// cacheKey builds the cache and store key for a pair: the engine's
// prefix, then the pair key that Result.PairKey reports (see pairKeyOf).
// Equivalence is symmetric, so its two canonical keys are sorted to
// double the hit rate.
func (e *Engine) cacheKey(op Op, k1, k2 string) string {
	if op == OpEquivalent && k2 < k1 {
		k1, k2 = k2, k1
	}
	return e.prefix + op.String() + "\x1e" + k1 + "\x1f" + k2
}

// pairKeyOf strips the engine's prefix from a cache key.
func (e *Engine) pairKeyOf(key string) string { return key[len(e.prefix):] }

// withObs resolves the observability handle for a call: the engine's
// configured Obs is installed into ctx (so the chase and search layers
// see it), else whatever Obs the caller's ctx already carries is used.
func (e *Engine) withObs(ctx context.Context) (context.Context, *obs.Obs) {
	if e.opts.Obs != nil {
		return obs.NewContext(ctx, e.opts.Obs), e.opts.Obs
	}
	return ctx, obs.FromContext(ctx)
}

// check validates and types q in a pooled canonizer.  It returns the
// canonizer, which holds q's compiled form for canonicalize, and q's
// head type, or nil for both when q fails Validate or HeadType.
func (e *Engine) check(q *cq.Query) (*canonizer, []value.Type) {
	c := canonizers.Get().(*canonizer)
	c.comp.Reset(q)
	if c.comp.Check(q, e.s) == nil {
		if ht, err := c.comp.HeadType(q); err == nil {
			return c, ht
		}
	}
	c.release()
	return nil, nil
}

// canonicalize computes the canonical key of q from c, the canonizer
// check returned for q, and releases c, counting the work and emitting
// a canonicalize span when tracing is on.  The span times the key
// alone: q was compiled and validated in check.
func (e *Engine) canonicalize(ctx context.Context, o *obs.Obs, c *canonizer, q *cq.Query) string {
	start := o.Time()
	k := c.canonical(q, true).Key
	c.release()
	o.C(obs.CCanonicalized).Inc()
	if o.SpansOn() {
		o.EmitSpan(ctx, obs.StageCanonicalize, start, nil,
			obs.I("atoms", int64(len(q.Body))))
	}
	return k
}

// countResult bumps the per-pair counters for one finished Result.
// Shared by Decide and Run's aggregation loop so both entry points
// reconcile against the same counter semantics.
func countResult(o *obs.Obs, r *Result) {
	if o == nil {
		return
	}
	o.C(obs.CPairs).Inc()
	switch {
	case r.Err != nil:
		o.C(obs.CPairsErrors).Inc()
	case r.CacheHit:
		o.C(obs.CCacheHits).Inc()
	case r.Deduped:
		o.C(obs.CDeduped).Inc()
	default:
		o.C(obs.CPairsComputed).Inc()
		o.H(obs.HPairNodes).Observe(r.Stats.Nodes)
	}
	if r.Err == nil && r.Holds {
		o.C(obs.CPairsHolding).Inc()
	}
}

// emitVerify sends the closing span of one pair's decision, from start
// to end, carrying the verdict and the pair's merged containment.Stats.
func emitVerify(ctx context.Context, o *obs.Obs, start, end time.Time, r *Result) {
	if !o.SpansOn() {
		return
	}
	o.EmitSpanAt(obs.WithPair(ctx, r.PairKey), obs.StageVerify, start, end, r.Err,
		obs.B("holds", r.Holds),
		obs.B("cache_hit", r.CacheHit),
		obs.B("deduped", r.Deduped),
		obs.I("nodes", r.Stats.Nodes),
		obs.I("searches", int64(r.Stats.Searches)),
		obs.I("chase_iterations", int64(r.Stats.ChaseIterations)),
		obs.I("chase_merges", int64(r.Stats.ChaseMerges)),
		obs.I("chase_revisited", int64(r.Stats.ChaseRevisited)),
		obs.B("chase_failed", r.Stats.ChaseFailed))
}

// Decide answers a single pair, consulting and filling the cache.  It
// is the single-query entry point behind Pool.Equiv; batches should use
// Run, which additionally memoizes chase results and parallelizes.  A
// miss runs as a one-pair batch through Run's pair decider, runLeader.
func (e *Engine) Decide(ctx context.Context, q1, q2 *cq.Query, op Op) (res Result) {
	ctx, o := e.withObs(ctx)
	start := o.Time()
	defer func() {
		countResult(o, &res)
		emitVerify(ctx, o, start, o.Time(), &res)
	}()
	// An already-cancelled or expired context never starts work (small
	// decisions can otherwise finish before the search polls ctx, which
	// would make cancellation nondeterministic for callers like the
	// daemon's admission path).
	if err := ctx.Err(); err != nil {
		return Result{Err: err}
	}
	// Each side is compiled once, validated and typed, and canonicalized
	// only when the pair passes; a failing pair gets CheckComparable's
	// error, as in Run.
	var c1, c2 *canonizer
	var t1, t2 []value.Type
	if q1 != nil && q2 != nil {
		if c1, t1 = e.check(q1); c1 != nil {
			c2, t2 = e.check(q2)
		}
	}
	if c2 == nil || containment.CheckHeadTypes(t1, t2) != nil {
		for _, c := range [...]*canonizer{c1, c2} {
			if c != nil {
				c.release()
			}
		}
		err := containment.CheckComparable(q1, q2, e.s)
		invariant.Assertf(err != nil, "engine: a pair failed Decide's checks but passes CheckComparable")
		return Result{Err: err}
	}
	k1 := e.canonicalize(ctx, o, c1, q1)
	k2 := e.canonicalize(ctx, o, c2, q2)
	key := e.cacheKey(op, k1, k2)
	pk := e.pairKeyOf(key)
	ctx = obs.WithPair(ctx, pk)
	if e.cache != nil {
		if v, ok := e.cache.get(key); ok {
			return Result{Holds: v.Holds, CacheHit: true, PairKey: pk, Stats: v.Stats}
		}
	}
	// Isomorphic queries (equal canonical keys) are interchangeable, so
	// the verdict is immediate for both ops, before any job timer starts.
	if k1 == k2 {
		if e.cache != nil {
			e.cachePut(o, key, Verdict{Holds: true})
		}
		return Result{Holds: true, PairKey: pk}
	}
	// A miss is a one-pair batch.  Its context is the pair's own, job
	// timeout included, so JobTimeout bounds Decide's chase as well as
	// its searches: no other pair shares the chase artifacts.
	if e.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.JobTimeout)
		defer cancel()
	}
	bs := &batchState{ctx: ctx, first: []*cq.Query{q1, q2}, frozen: make([]frozen, 2)}
	res, read := e.runLeader(bs, Job{Left: q1, Right: q2, Op: op}, 0, 1)
	res = e.settle(o, key, res, read)
	if res.Err == nil && e.cache != nil && o != nil {
		o.G(obs.GCacheEntries).Set(int64(e.cache.stats().Entries))
	}
	return res
}

// frozen is the memoized chase artifact of one canonical query: its
// canonical database, chased with the engine's dependencies.  Computing
// it once per distinct query is the chase-memoization half of the
// engine's caching.
type frozen struct {
	once sync.Once
	db   *containment.CanonicalDB
	// claimed hands the chase stats to exactly one pair.  The artifact
	// is shared by every pair mentioning the query, but the chase ran
	// once; attributing its work to each sharer would overcount,
	// attributing it to none would lose it.  The booking pass claims in
	// dispatch order after the pool has finished, so the first leader in
	// that order to read the artifact books it, whichever worker
	// computed it.
	claimed bool
}

// claim returns the artifact's chase stats exactly once; later calls
// (other pairs sharing the artifact) get zero.  Summing claimed stats
// over a batch therefore equals the chase work actually performed,
// which is what the obs reconciliation check enforces.  Only the serial
// booking pass calls it.
func (f *frozen) claim() containment.Stats {
	if f == nil || f.claimed {
		return containment.Stats{}
	}
	f.claimed = true
	return f.db.ChaseStats()
}

// batchState carries the structures shared by the pairs of one batch:
// a Run, or the single pair of a Decide miss.  Both slices are indexed
// by canonical key number.
type batchState struct {
	ctx context.Context // the chases' context
	// first holds the first query carrying each canonical key, in job
	// order.  Freezing that query, not whichever sharer a worker reaches
	// first, keeps the artifact's null numbering — and so every search's
	// node count — independent of the worker count.
	first  []*cq.Query
	frozen []frozen // each canonical query's artifact
}

// frozenOf returns the chase artifact for the query with canonical key
// number k, computing it at most once per batch.  Its nulls equal no
// constant, so every pair mentioning the query can search it.  A chase
// cut short by the batch context keeps its partial work for claim, and
// every search of the artifact reports the error.
func (e *Engine) frozenOf(b *batchState, k int) *frozen {
	f := &b.frozen[k]
	f.once.Do(func() {
		f.db = containment.NewCanonicalDB(b.ctx, b.first[k], e.s, e.deps)
	})
	return f
}

// fanOut calls f(i) for every i in [0, n) on at most workers
// goroutines, each claiming the lowest unclaimed index, and returns once
// every call has.  With one worker (or at most one item) it runs inline
// on the caller's goroutine, so Workers 1 stays strictly sequential.
func fanOut(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// canonMemo validates and canonicalizes each distinct query of a batch
// once; batches repeat queries heavily (identity views, shared sides,
// regenerated corpora).  Queries are looked up by presentation, so
// clones of one query — pointer-distinct but structurally identical —
// share one entry.  It is safe for concurrent use: the mutex guards
// the table and the key numbering, and each entry's sync.Onces make
// concurrent sharers of a presentation wait for its one check and its
// one canonicalization instead of repeating them.
type canonMemo struct {
	mu   sync.Mutex
	seed maphash.Seed
	// mask keeps every bit of a presentation's hash; a test clears it to
	// put every presentation into one chain.
	mask uint64
	// chains maps a presentation's hash to its entries, linked by next.
	chains map[uint64]*canonEntry
	// Entries are carved from slabs of slab entries; free is the unused
	// tail of the last.
	free []canonEntry
	slab int
	// keys lists the batch's distinct canonical keys by number; nums
	// numbers them.
	keys []string
	nums map[string]int
	// fails holds the error of each failing pair of entries, a nil entry
	// standing for a nil query.
	fails map[[2]*canonEntry]*failure
}

// failure is the error of one failing pair of presentations, built once
// per batch however many jobs repeat the pair.
type failure struct {
	once sync.Once
	err  error
}

// canonEntry is one presentation's validation and canonical key.
type canonEntry struct {
	q    *cq.Query   // the first query with this presentation
	next *canonEntry // the next entry whose presentation hashes alike
	// checked guards headType and c, canon guards num.
	checked, canon sync.Once
	// headType is the presentation's head type, nil when it failed
	// Validate or HeadType; HeadType never returns a nil slice.
	headType []value.Type
	// c holds the presentation's compiled form from its check to its
	// canonicalization.  A valid presentation met only in failing pairs
	// keeps it until the memo is dropped, outside the canonizer pool.
	c   *canonizer
	num int // the number of the canonical key in the memo
}

// newCanonMemo returns an empty memo for a batch of n jobs, whose
// entries come in slabs of at most 64.
func newCanonMemo(n int) *canonMemo {
	return &canonMemo{
		seed:   maphash.MakeSeed(),
		mask:   ^uint64(0),
		chains: make(map[uint64]*canonEntry),
		slab:   max(1, min(64, 2*n)),
		nums:   make(map[string]int),
	}
}

// entry returns q's entry, creating it on first sight of q's
// presentation.
func (m *canonMemo) entry(q *cq.Query) *canonEntry {
	// Most presentations repeat: render into a stack buffer and keep only
	// its hash.  A hit is confirmed field by field against the entry's
	// first query, so no rendering is ever stored.
	var buf [2 << 10]byte
	h := maphash.Bytes(m.seed, appendPresentation(buf[:0], q)) & m.mask
	m.mu.Lock()
	defer m.mu.Unlock()
	for ent := m.chains[h]; ent != nil; ent = ent.next {
		if samePresentation(ent.q, q) {
			return ent
		}
	}
	if len(m.free) == 0 {
		m.free = make([]canonEntry, m.slab)
	}
	ent := &m.free[0]
	m.free = m.free[1:]
	ent.q, ent.next = q, m.chains[h]
	m.chains[h] = ent
	return ent
}

// number returns the number of canonical key k, numbering it on first
// sight.
func (m *canonMemo) number(k string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nums[k]
	if !ok {
		n = len(m.keys)
		m.nums[k] = n
		m.keys = append(m.keys, k)
	}
	return n
}

// failureOf returns the failure of the pair of entries (l, r), creating
// it on first sight of the pair.
func (m *canonMemo) failureOf(l, r *canonEntry) *failure {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := [2]*canonEntry{l, r}
	f := m.fails[k]
	if f == nil {
		if m.fails == nil {
			m.fails = make(map[[2]*canonEntry]*failure)
		}
		f = &failure{}
		m.fails[k] = f
	}
	return f
}

// checkEntry validates and types q, the entry's presentation, at most
// once per batch and reports whether it is valid.  Validation depends
// on the presentation alone, so every clone shares the answer.
func (e *Engine) checkEntry(ent *canonEntry, q *cq.Query) bool {
	ent.checked.Do(func() { ent.c, ent.headType = e.check(q) })
	return ent.headType != nil
}

// keyOf returns the number of q's canonical key, q being the entry's
// valid presentation: it canonicalizes q from the entry's compiled form
// and numbers the key in m at most once per batch.
func (e *Engine) keyOf(ctx context.Context, o *obs.Obs, m *canonMemo, ent *canonEntry, q *cq.Query) int {
	ent.canon.Do(func() {
		ent.num = m.number(e.canonicalize(ctx, o, ent.c, q))
		ent.c = nil
	})
	return ent.num
}

// appendPresentation appends a rendering of q to b that is exact: two
// queries render alike only when their head relations, heads, bodies
// and equality lists are identical (source positions aside), because
// every name is length-prefixed, every list counted and every term
// tagged.  q.String() is not exact: it prints the variable named `T1:5`
// and the constant T1:5 alike.
func appendPresentation(b []byte, q *cq.Query) []byte {
	b = appendName(b, q.HeadRel)
	b = binary.AppendUvarint(b, uint64(len(q.Head)))
	for _, t := range q.Head {
		b = appendTerm(b, t)
	}
	b = binary.AppendUvarint(b, uint64(len(q.Body)))
	for _, a := range q.Body {
		b = appendName(b, a.Rel)
		b = binary.AppendUvarint(b, uint64(len(a.Vars)))
		for _, v := range a.Vars {
			b = appendName(b, string(v))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(q.Eqs)))
	for _, e := range q.Eqs {
		b = appendName(b, string(e.Left))
		b = appendTerm(b, e.Right)
	}
	return b
}

// appendName appends s behind its length.
func appendName(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendTerm appends a variable as 'v' and its name, a constant as 'c'
// (a labeled null as 'n'), its type and its number.
func appendTerm(b []byte, t cq.Term) []byte {
	if !t.IsConst {
		return appendName(append(b, 'v'), string(t.Var))
	}
	tag := byte('c')
	if t.Const.Null {
		tag = 'n'
	}
	b = binary.AppendVarint(append(b, tag), int64(t.Const.Type))
	return binary.AppendVarint(b, t.Const.N)
}

// samePresentation reports whether a and b render alike under
// appendPresentation, comparing the rendered fields one by one.
func samePresentation(a, b *cq.Query) bool {
	if a == b {
		return true
	}
	if a.HeadRel != b.HeadRel || len(a.Head) != len(b.Head) || len(a.Body) != len(b.Body) || len(a.Eqs) != len(b.Eqs) {
		return false
	}
	for i := range a.Head {
		if !sameTerm(a.Head[i], b.Head[i]) {
			return false
		}
	}
	for i := range a.Body {
		if a.Body[i].Rel != b.Body[i].Rel || !slices.Equal(a.Body[i].Vars, b.Body[i].Vars) {
			return false
		}
	}
	for i := range a.Eqs {
		if a.Eqs[i].Left != b.Eqs[i].Left || !sameTerm(a.Eqs[i].Right, b.Eqs[i].Right) {
			return false
		}
	}
	return true
}

// sameTerm reports whether a and b render alike under appendTerm.
func sameTerm(a, b cq.Term) bool {
	if a.IsConst || b.IsConst {
		return a.IsConst == b.IsConst && a.Const == b.Const
	}
	return a.Var == b.Var
}

// Run decides every job of the batch: validate and canonicalize, dedupe
// identical pairs, probe the cache, then fan the remaining work across
// the worker pool.  Chase artifacts are shared per distinct query; the
// homomorphism searches of each pair run under the per-job timeout.
// Results are positionally aligned with jobs.
func (e *Engine) Run(ctx context.Context, jobs []Job) *Report {
	return e.run(ctx, jobs, newCanonMemo(len(jobs)))
}

// run is Run over the presentation memo m.
func (e *Engine) run(ctx context.Context, jobs []Job, m *canonMemo) *Report {
	ctx, o := e.withObs(ctx)
	rep := &Report{Results: make([]Result, len(jobs)), Pairs: len(jobs), Workers: e.opts.Workers}
	var started time.Time
	if e.opts.Now != nil {
		started = e.opts.Now()
	}

	// Validate and canonicalize on the pool, each job into its own slots
	// and each presentation once, from one compiled form.  Everything
	// order-dependent happens in the serial pass below, so the result
	// does not depend on which worker got where.
	keyNum := make([][2]int, len(jobs)) // a passing job's two key numbers
	checkErr := make([]error, len(jobs))
	fanOut(e.opts.Workers, len(jobs), func(i int) {
		j := jobs[i]
		var l, r *canonEntry
		if j.Left != nil {
			l = m.entry(j.Left)
		}
		if j.Right != nil {
			r = m.entry(j.Right)
		}
		if l != nil && r != nil && e.checkEntry(l, j.Left) && e.checkEntry(r, j.Right) &&
			containment.CheckHeadTypes(l.headType, r.headType) == nil {
			keyNum[i] = [2]int{e.keyOf(ctx, o, m, l, j.Left), e.keyOf(ctx, o, m, r, j.Right)}
			return
		}
		// The pair failed CheckComparable's checks: Validate and HeadType,
		// made once per presentation, or CheckHeadTypes.  CheckComparable
		// builds the error Decide returns, once per pair of presentations.
		f := m.failureOf(l, r)
		f.once.Do(func() { f.err = containment.CheckComparable(j.Left, j.Right, e.s) })
		checkErr[i] = f.err
		invariant.Assertf(checkErr[i] != nil, "engine: job %d failed the memo's checks but passes CheckComparable", i)
	})

	// Group jobs by canonical pair in job order; one leader computes, the
	// rest copy.  A pair is the op and the two key numbers, unordered for
	// the symmetric equivalence op as in cacheKey, so a group's cache key
	// is built once and its jobs share it as their pair key.  The key
	// numbers depend on scheduling; the groups, their order and every key
	// do not.
	type pair struct {
		op   Op
		l, r int
	}
	type group struct {
		key          string // the cache key
		leader, last int    // the group's first and last job
	}
	groupOf := make(map[pair]int)
	var groups []group
	next := make([]int, len(jobs))          // the job after i in its group, -1 after the last
	first := make([]*cq.Query, len(m.keys)) // by key number, in job order
	for i, j := range jobs {
		if checkErr[i] != nil {
			rep.Results[i] = Result{Err: checkErr[i]}
			continue
		}
		l, r := keyNum[i][0], keyNum[i][1]
		if first[l] == nil {
			first[l] = j.Left
		}
		if first[r] == nil {
			first[r] = j.Right
		}
		p := pair{j.Op, l, r}
		if j.Op == OpEquivalent && r < l {
			p.l, p.r = r, l
		}
		next[i] = -1
		gi, ok := groupOf[p]
		if ok {
			next[groups[gi].last] = i
			groups[gi].last = i
		} else {
			gi = len(groups)
			groupOf[p] = gi
			groups = append(groups, group{key: e.cacheKey(j.Op, m.keys[l], m.keys[r]), leader: i, last: i})
		}
		rep.Results[i].PairKey = e.pairKeyOf(groups[gi].key)
	}

	// Cache probe per group.
	var work []int // groups to compute, in dispatch order
	for gi := range groups {
		g := &groups[gi]
		if e.cache == nil {
			work = append(work, gi)
			continue
		}
		if v, ok := e.cache.get(g.key); ok {
			for i := g.leader; i >= 0; i = next[i] {
				rep.Results[i].Holds = v.Holds
				rep.Results[i].CacheHit = true
				rep.Results[i].Stats = v.Stats
				now := o.Time()
				emitVerify(ctx, o, now, now, &rep.Results[i])
			}
			continue
		}
		work = append(work, gi)
	}

	// Compute the remaining groups on the pool.
	bs := &batchState{ctx: ctx, first: first, frozen: make([]frozen, len(first))}
	type leaderRun struct {
		res        Result
		read       [2]*frozen // chase artifacts the leader read
		start, end time.Time
	}
	runs := make([]leaderRun, len(work))
	fanOut(e.opts.Workers, len(work), func(w int) {
		i := groups[work[w]].leader
		r := &runs[w]
		r.start = o.Time()
		r.res, r.read = e.runLeader(bs, jobs[i], keyNum[i][0], keyNum[i][1])
		r.end = o.Time()
	})

	// Book, cache and report each group in dispatch order.  Claiming
	// here rather than on the pool gives each artifact's chase work to
	// the first leader in that order that read it, so per-pair Stats do
	// not depend on which worker got where.
	for w, gi := range work {
		r := &runs[w]
		g := &groups[gi]
		res := e.settle(o, g.key, r.res, r.read)
		rep.Results[g.leader] = res
		emitVerify(ctx, o, r.start, r.end, &res)
		for i := next[g.leader]; i >= 0; i = next[i] {
			dup := res
			dup.Deduped = true
			// A dedup copy carries none of the leader's work, only the
			// vacuity marker the verdict depends on.
			dup.Stats = containment.Stats{}
			if res.Stats.ChaseFailed {
				dup.Stats = containment.FailedChaseStats()
			}
			rep.Results[i] = dup
			emitVerify(ctx, o, r.start, r.end, &dup)
		}
	}

	for i := range rep.Results {
		r := &rep.Results[i]
		countResult(o, r)
		switch {
		case r.Err != nil:
			rep.Errors++
		case r.CacheHit:
			rep.CacheHits++
		case r.Deduped:
			rep.Deduped++
		default:
			rep.Computed++
			rep.Nodes += r.Stats.Nodes
			rep.ChaseIterations += r.Stats.ChaseIterations
		}
		if r.Err == nil && r.Holds {
			rep.Holding++
		}
	}
	if e.cache != nil {
		rep.Cache = e.cache.stats()
		o.G(obs.GCacheEntries).Set(int64(rep.Cache.Entries))
	}
	if e.opts.Now != nil {
		rep.Wall = e.opts.Now().Sub(started)
	}
	return rep
}

// runLeader decides one deduplicated pair using the batch's memoized
// chase artifacts.  It is the engine's one pair decider: Run calls it
// for every group leader, Decide for a cache miss.  It returns the
// artifacts it read, whose chase work the caller books through settle;
// the Result's Stats hold the searches only.  l and r are the numbers of
// the two sides' canonical keys in bs.
func (e *Engine) runLeader(bs *batchState, j Job, l, r int) (Result, [2]*frozen) {
	var read [2]*frozen
	jctx := bs.ctx
	if err := jctx.Err(); err != nil {
		return Result{Err: err}, read
	}
	// Equal canonical keys mean the queries are isomorphic (a key is a
	// faithful encoding even when inexact), so both ops hold with no
	// chase or homomorphism search at all.
	if l == r {
		return Result{Holds: true}, read
	}
	if e.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(jctx, e.opts.JobTimeout)
		defer cancel()
	}
	read[0] = e.frozenOf(bs, l)
	ok, st, err := read[0].db.ContainedIn(jctx, j.Right)
	if err != nil || !ok || j.Op == OpContained {
		return Result{Holds: ok, Stats: st, Err: err}, read
	}
	read[1] = e.frozenOf(bs, r)
	ok2, st2, err := read[1].db.ContainedIn(jctx, j.Left)
	st.Merge(st2)
	return Result{Holds: ok2, Stats: st, Err: err}, read
}

// settle books a leader's Result under cache key key: it merges in the
// chase work the leader claims from the artifacts it read and enters a
// verdict into the cache.  Cancellation and timeout never reach the
// cache: the partial verdict would shadow a real decision on retry.
func (e *Engine) settle(o *obs.Obs, key string, res Result, read [2]*frozen) Result {
	res.Stats.Merge(read[0].claim())
	res.Stats.Merge(read[1].claim())
	res.PairKey = e.pairKeyOf(key)
	if res.Err == nil && e.cache != nil {
		e.cachePut(o, key, Verdict{Holds: res.Holds, Stats: res.Stats})
	}
	return res
}

// Fingerprint renders the (schema, dependencies) pair an engine is
// bound to; a Pool's engines open their cache and store keys with it.
func Fingerprint(s *schema.Schema, deps []fd.FD) string {
	parts := make([]string, 0, len(deps)+1)
	parts = append(parts, s.String())
	ds := make([]string, len(deps))
	for i, d := range deps {
		ds[i] = d.String()
	}
	sort.Strings(ds)
	parts = append(parts, ds...)
	return strings.Join(parts, "\x00")
}
