package exp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"keyedeq/internal/chase"
	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Seed baselines: the bound each case's committed record must stay at
// or under.  For the two original kernels the seed is the previous
// committed record (the ratchet: the PR that introduced the interned
// runtime must land strictly below what the generic hot paths already
// achieved, and later PRs must hold the line).  For the intern bulk
// case the seed is the generic map-staged freeze path the bulk loader
// replaces, measured once on the same workload.
const (
	// seedChaseAllocs is the BenchmarkT4Chase/rows-1000 record committed
	// by the hot-path allocation PR (down from 2891 pre-fix); the dense
	// ID worklist chase must beat it.
	seedChaseAllocs = 882
	// seedSearchAllocs is the BenchmarkT3Containment/clique-4 record
	// committed by the hot-path allocation PR (down from 271 pre-fix);
	// the interned search must beat it.
	seedSearchAllocs = 258
	// seedInternAllocs is the million-tuple build staged through the
	// map-backed Database and frozen (one MustInsert per tuple, then
	// FreezeDatabase), which the Interner + flat-row bulk load replaces.
	seedInternAllocs = 9881004
	// seedParseAllocs and seedCanonAllocs are cq.Parse and
	// engine.CanonicalizeQuery per decide-hot query as measured before
	// the parser went linear-time and the canonizer was pooled.
	seedParseAllocs = 318
	seedCanonAllocs = 101
	// seedMissAllocs is engine.Decide's miss path on the wide-chain pair
	// as measured before the search plan, the hash indexes, the tableau
	// rows, the freeze's tables and the tie-break states were pooled.
	seedMissAllocs = 140
)

// AllocCaseResult is one kernel's steady-state allocation measurement.
type AllocCaseResult struct {
	Name        string `json:"name"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// SeedAllocsPerOp is the pre-fix baseline the gate compares against;
	// it rides in the record so the file documents the improvement.
	SeedAllocsPerOp int64 `json:"seed_allocs_per_op"`
}

// AllocBenchResult is the hot-path allocation regression record written
// to BENCH_alloc.json by `keyedeq-bench -record alloc -json`.
type AllocBenchResult struct {
	Cases []AllocCaseResult `json:"cases"`
}

// Case returns the named case, if recorded.
func (r *AllocBenchResult) Case(name string) (AllocCaseResult, bool) {
	for _, c := range r.Cases {
		if c.Name == name {
			return c, true
		}
	}
	return AllocCaseResult{}, false
}

// AllocCaseNames lists the cases every complete record must carry.
func AllocCaseNames() []string {
	return []string{"chase/rows-1000", "search/clique-4", "intern/rows-1M", "parse/decide-hot", "canon/decide-hot", "decide/miss-wide"}
}

// A1AllocBench measures allocations per operation of the hot-path
// kernels the allocation lint rules police — one semi-naive chase run,
// one freeze-chase-search containment check (the exact workloads of
// BenchmarkT4Chase/rows-1000 and BenchmarkT3Containment/clique-4), the
// bulk intern load, the per-query front end every decision pays (one
// parse, one canonicalization), and one engine decision on the miss
// path — via testing.Benchmark.  A case that fails to run is noted in
// the table and omitted from the record, which the verify gate then
// rejects as incomplete.
func A1AllocBench() (*Table, *AllocBenchResult) {
	t := &Table{
		ID:      "A1",
		Title:   "hot-path allocations per operation (chase, search, interning, query parse and canonicalization, decision miss path)",
		Columns: []string{"case", "allocs/op", "bytes/op", "seed allocs/op"},
	}
	res := &AllocBenchResult{}
	for _, c := range []struct {
		name string
		seed int64
		run  func(b *testing.B) error
	}{
		{"chase/rows-1000", seedChaseAllocs, allocChaseRun},
		{"search/clique-4", seedSearchAllocs, allocSearchRun},
		{"intern/rows-1M", seedInternAllocs, allocInternRun},
		{"parse/decide-hot", seedParseAllocs, allocParseRun},
		{"canon/decide-hot", seedCanonAllocs, allocCanonRun},
		{"decide/miss-wide", seedMissAllocs, allocMissRun},
	} {
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			runErr = c.run(b)
		})
		if runErr != nil {
			t.Note("%s: %v", c.name, runErr)
			continue
		}
		cr := AllocCaseResult{
			Name:            c.name,
			AllocsPerOp:     r.AllocsPerOp(),
			BytesPerOp:      r.AllocedBytesPerOp(),
			SeedAllocsPerOp: c.seed,
		}
		res.Cases = append(res.Cases, cr)
		t.Add(cr.Name, cr.AllocsPerOp, cr.BytesPerOp, cr.SeedAllocsPerOp)
	}
	return t, res
}

// allocChaseRun is the BenchmarkT4Chase/rows-1000 workload: 1000 rows
// over a single keyed relation with a third as many key nulls, chased
// to its fixpoint.  Tableau construction happens with the timer (and
// allocation accounting) stopped, so the measurement isolates the chase.
func allocChaseRun(b *testing.B) error {
	s := schema.MustParse("R(k*:T1, a:T2, b:T3)")
	deps := fd.KeyFDs(s)
	rng := rand.New(rand.NewSource(1))
	const rows = 1000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := chase.NewTableau(s)
		nKeys := rows/3 + 1
		keys := make([]chase.Term, nKeys)
		for j := range keys {
			keys[j] = tb.NewNull(1)
		}
		for j := 0; j < rows; j++ {
			cells := []chase.Term{keys[rng.Intn(nKeys)], tb.NewNull(2), tb.NewNull(3)}
			if err := tb.AddRow("R", cells); err != nil {
				return err
			}
		}
		b.StartTimer()
		if _, err := tb.Run(deps); err != nil {
			return err
		}
	}
	return nil
}

// allocInternRun is the bench_intern workload: bulk-build the interned
// view of a million-tuple keyed relation — one Interner pass over the
// pre-generated cells into a flat ID row array.  Value generation runs
// before the timer, so the measurement isolates interning and encoding.
func allocInternRun(b *testing.B) error {
	s := schema.MustParse("R(k*:T1, a:T2, b:T3)")
	const rows = 1_000_000
	b.StopTimer()
	rng := rand.New(rand.NewSource(2))
	vals := make([]value.Value, 0, rows*3)
	for j := 0; j < rows; j++ {
		vals = append(vals,
			value.Value{Type: 1, N: int64(j)},
			value.Value{Type: 2, N: rng.Int63n(rows / 2)},
			value.Value{Type: 3, N: rng.Int63n(rows / 2)})
	}
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		in := value.NewInterner(len(vals))
		ids := make([]value.ID, len(vals))
		for k, v := range vals {
			ids[k] = in.Intern(v)
		}
		if n := instance.NewFrozenRelation(s.Relations[0], ids).NumRows(); n != rows {
			return fmt.Errorf("interned %d rows, want %d", n, rows)
		}
	}
	return nil
}

// allocSearchRun is the BenchmarkT3Containment/clique-4 workload: the
// containment curve's most expensive point, freeze + search (the
// adaptive search) per operation.
func allocSearchRun(b *testing.B) error {
	gs := gen.GraphSchema()
	q1 := gen.CliqueQuery(4)
	q1.Head = q1.Head[:1]
	q2 := gen.CliqueQuery(3)
	q2.Head = q2.Head[:1]
	for i := 0; i < b.N; i++ {
		ok, _, err := containment.ContainedUnder(q1, q2, gs, nil)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("clique-4 containment unexpectedly false")
		}
	}
	return nil
}

// decideHotQuery is one query text of the decide-hot mix with the
// schema of its family.
type decideHotQuery struct {
	text   string
	schema *schema.Schema
}

// decideHotQueries is the query mix the end-to-end benchmark's
// decide-hot workload sends, without its Zipf draw: 40 pairs per
// gen.PairCorpus family (family fi seeded 11+fi, as E1 is), each side
// printed as a fresh alpha variant.
func decideHotQueries() ([]decideHotQuery, error) {
	rng := rand.New(rand.NewSource(1))
	var out []decideHotQuery
	for fi, name := range gen.FamilyNames() {
		f, err := gen.PairCorpus(rand.New(rand.NewSource(int64(11+fi))), name, 40)
		if err != nil {
			return nil, err
		}
		for _, p := range f.Pairs {
			for _, q := range []*cq.Query{p.Left, p.Right} {
				out = append(out, decideHotQuery{gen.AlphaVariant(rng, q).String(), f.Schema})
			}
		}
	}
	return out, nil
}

// allocParseRun parses one decide-hot query text per operation, cycling
// through the mix.
func allocParseRun(b *testing.B) error {
	b.StopTimer()
	qs, err := decideHotQueries()
	if err != nil {
		return err
	}
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Parse(qs[i%len(qs)].text); err != nil {
			return err
		}
	}
	return nil
}

// allocCanonRun canonicalizes one parsed decide-hot query per operation,
// cycling through the mix; parsing happens before the timer.
func allocCanonRun(b *testing.B) error {
	b.StopTimer()
	qs, err := decideHotQueries()
	if err != nil {
		return err
	}
	parsed := make([]*cq.Query, len(qs))
	for i, q := range qs {
		if parsed[i], err = cq.Parse(q.text); err != nil {
			return err
		}
	}
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		if engine.CanonicalizeQuery(parsed[i%len(qs)], qs[i%len(qs)].schema).Key == "" {
			return fmt.Errorf("empty canonical key for %s", qs[i%len(qs)].text)
		}
	}
	return nil
}

// allocMissRun decides the wide chains of 12 and 13 atoms per operation
// through engine.Decide with the verdict cache off, so every operation
// runs the whole miss path: check, canonicalize, freeze, chase, plan,
// index and search.  The engine is built before the timer.
func allocMissRun(b *testing.B) error {
	b.StopTimer()
	s := gen.WideSchema()
	e := engine.New(s, fd.KeyFDs(s), engine.Options{CacheSize: -1})
	q1, q2 := gen.WideChainQuery(12), gen.WideChainQuery(13)
	ctx := context.Background()
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		r := e.Decide(ctx, q1, q2, engine.OpEquivalent)
		if r.Err != nil {
			return r.Err
		}
		if r.Holds {
			return fmt.Errorf("wide chains of 12 and 13 atoms decided equivalent")
		}
	}
	return nil
}
