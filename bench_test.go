package keyedeq

// One benchmark per experiment table/figure (DESIGN.md §4).  The
// full-table generators live in internal/exp and are run by
// cmd/keyedeq-bench; these benches time the kernel of each experiment so
// `go test -bench=.` reproduces the per-operation numbers.

import (
	"fmt"
	"math/rand"
	"testing"

	"context"

	"keyedeq/internal/acyclic"
	"keyedeq/internal/capacity"
	"keyedeq/internal/chase"
	"keyedeq/internal/containment"
	"keyedeq/internal/dominance"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/ind"
	"keyedeq/internal/instance"
	"keyedeq/internal/mapping"
	"keyedeq/internal/schema"
	"keyedeq/internal/ucq"
)

// T1 — Theorem 13, exhaustive search vs isomorphism: one full
// equivalence search over a representative pair.
func BenchmarkT1TheoremExhaustive(b *testing.B) {
	s1 := schema.MustParse("r(a*:T1, b:T2)")
	s2 := schema.MustParse("p(x:T2, y*:T1)")
	bounds := dominance.SearchBounds{MaxAtoms: 1, MaxEqs: 1, MaxViews: 2000, MaxPairs: 100_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, _, err := dominance.SearchEquivalence(context.Background(), s1, s2, bounds, dominance.SearchOptions{})
		if err != nil || !ok {
			b.Fatalf("search: %v %v", ok, err)
		}
	}
}

// T2 — Lemmas 1-2: saturate and productize the paper's three-copy query.
func BenchmarkT2SaturationProduct(b *testing.B) {
	q := MustParseQuery("Q(X, Y) :- E(X, Y), E(A, B), E(C, D), X = A, X = C, Y = B.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := ProductUnder(q)
		if err != nil || len(p.Body) != 1 {
			b.Fatalf("product: %v", err)
		}
	}
}

// T3 — containment scaling, one sub-bench per shape and size.
func BenchmarkT3Containment(b *testing.B) {
	gs := gen.GraphSchema()
	shapes := []struct {
		name  string
		build func(int) *Query
		sizes []int
	}{
		{"chain", gen.ChainQuery, []int{4, 8, 12}},
		{"star", gen.StarQuery, []int{4, 8, 12}},
		{"clique", gen.CliqueQuery, []int{3, 4}},
	}
	for _, sh := range shapes {
		for _, n := range sh.sizes {
			q1 := sh.build(n)
			q1.Head = q1.Head[:1]
			q2 := sh.build(n - 1)
			q2.Head = q2.Head[:1]
			b.Run(fmt.Sprintf("%s-%d", sh.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ok, _, err := containment.ContainedUnder(q1, q2, gs, nil)
					if err != nil || !ok {
						b.Fatalf("containment: %v %v", ok, err)
					}
				}
			})
		}
	}
}

// T4 — chase scaling over tableaux of growing size.
func BenchmarkT4Chase(b *testing.B) {
	s := schema.MustParse("R(k*:T1, a:T2, b:T3)")
	deps := fd.KeyFDs(s)
	for _, rows := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows-%d", rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
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
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := tb.Run(deps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// T5 — mapping composition plus the symbolic identity decision.
func BenchmarkT5MappingIdentity(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s1 := gen.RandomKeyedSchema(rng, 2, 4, 3)
	s2, iso := schema.RandomIsomorph(s1, rng)
	alpha, beta, err := mapping.FromIsomorphism(s1, s2, iso)
	if err != nil {
		b.Fatal(err)
	}
	deps := fd.KeyFDs(s1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comp, err := mapping.Compose(beta, alpha)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := comp.IsIdentityOn(context.Background(), deps, nil)
		if err != nil || !ok {
			b.Fatalf("identity: %v %v", ok, err)
		}
	}
}

// T6 — Theorem 9: build and verify one κ-reduction per iteration.
func BenchmarkT6KappaReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	s1 := gen.RandomKeyedSchema(rng, 2, 3, 3)
	s2, iso := schema.RandomIsomorph(s1, rng)
	alpha, beta, err := mapping.FromIsomorphism(s1, s2, iso)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		aK, bK, err := dominance.KappaReduction(alpha, beta, nil)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := dominance.VerifyKappaPair(aK, bK)
		if err != nil || !ok {
			b.Fatalf("kappa: %v %v", ok, err)
		}
	}
}

// T7 — the two decision procedures side by side.
func BenchmarkT7DecisionCompare(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	s1 := gen.RandomKeyedSchema(rng, 1, 3, 2)
	s2, _ := schema.RandomIsomorph(s1, rng)
	b.Run("canonical-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !schema.Isomorphic(s1, s2) {
				b.Fatal("should be isomorphic")
			}
		}
	})
	b.Run("bounded-search", func(b *testing.B) {
		bounds := dominance.SearchBounds{MaxAtoms: 1, MaxEqs: 1, MaxViews: 20000, MaxPairs: 500_000}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ok, _, err := dominance.SearchEquivalence(context.Background(), s1, s2, bounds, dominance.SearchOptions{})
			if err != nil || !ok {
				b.Fatalf("search: %v %v", ok, err)
			}
		}
	})
}

// T8 — FD closure over random dependency sets.
func BenchmarkT8FDClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	all := fd.Set(0)
	for p := 0; p < 32; p++ {
		all = all.Union(fd.NewSet(p))
	}
	deps := make([]fd.Dep, 64)
	for i := range deps {
		deps[i] = fd.Dep{X: fd.Set(rng.Int63()) & all, Y: fd.Set(rng.Int63()) & all}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fd.Closure(fd.Set(rng.Int63())&all, deps)
	}
}

// F1 — the containment curve's most expensive point (clique-4).
func BenchmarkF1ContainmentCurve(b *testing.B) {
	gs := gen.GraphSchema()
	q1 := gen.CliqueQuery(4)
	q1.Head = q1.Head[:1]
	q2 := gen.CliqueQuery(3)
	q2.Head = q2.Head[:1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, _, err := containment.ContainedUnder(q1, q2, gs, nil)
		if err != nil || !ok {
			b.Fatalf("containment: %v %v", ok, err)
		}
	}
}

// F2 — candidate view enumeration at width 4.
func BenchmarkF2SearchSpace(b *testing.B) {
	r := &schema.Relation{Name: "R", Key: []int{0}}
	for p := 0; p < 4; p++ {
		r.Attrs = append(r.Attrs, schema.Attribute{Name: fmt.Sprintf("a%d", p), Type: 1})
	}
	s := schema.MustNew(r)
	bounds := dominance.SearchBounds{MaxAtoms: 1, MaxEqs: 1, MaxViews: 20000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		views := dominance.EnumerateViews(s, s.Relations[0], bounds)
		if len(views) == 0 {
			b.Fatal("no views")
		}
	}
}

// F3 — chase curve point: 1000 rows, 4 EGDs.
func BenchmarkF3ChaseCurve(b *testing.B) {
	rs := make([]*schema.Relation, 4)
	for i := range rs {
		rs[i] = &schema.Relation{
			Name: fmt.Sprintf("R%d", i),
			Attrs: []schema.Attribute{
				{Name: "k", Type: 1}, {Name: "a", Type: 2}, {Name: "b", Type: 3},
			},
			Key: []int{0},
		}
	}
	s := schema.MustNew(rs...)
	deps := fd.KeyFDs(s)
	rng := rand.New(rand.NewSource(6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := chase.NewTableau(s)
		nKeys := 334
		keys := make([]chase.Term, nKeys)
		for j := range keys {
			keys[j] = tb.NewNull(1)
		}
		for j := 0; j < 1000; j++ {
			rel := rs[rng.Intn(len(rs))]
			if err := tb.AddRow(rel.Name, []chase.Term{
				keys[rng.Intn(nKeys)], tb.NewNull(2), tb.NewNull(3),
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := tb.Run(deps); err != nil {
			b.Fatal(err)
		}
	}
}

// T9 — one full attribute-migration build + symbolic verification.
func BenchmarkT9INDMigration(b *testing.B) {
	c := paperConstrainedBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := c.MoveAttribute("salespeople", 1, "employee", []int{0})
		if err != nil {
			b.Fatal(err)
		}
		ok, err := c.Verify(res)
		if err != nil || !ok {
			b.Fatalf("verify: %v %v", ok, err)
		}
	}
}

func paperConstrainedBench() *ind.Constrained {
	s := schema.MustParse(`
employee(ss*:T1, eName:T2, salary:T3, depId:T4)
department(deptId*:T4, deptName:T5, mgr:T1)
salespeople(ss*:T1, yearsExp:T6)
`)
	return &ind.Constrained{
		S: s,
		INDs: []ind.IND{
			{Left: ind.Ref{Rel: "employee", Pos: []int{3}}, Right: ind.Ref{Rel: "department", Pos: []int{0}}},
			{Left: ind.Ref{Rel: "salespeople", Pos: []int{0}}, Right: ind.Ref{Rel: "employee", Pos: []int{0}}},
			{Left: ind.Ref{Rel: "employee", Pos: []int{0}}, Right: ind.Ref{Rel: "salespeople", Pos: []int{0}}},
		},
	}
}

// T10 — instance counting over finite domains.
func BenchmarkT10Capacity(b *testing.B) {
	s := schema.MustParse("r(k*:T1, a:T2, b:T3)\ns(x*:T2, y:T1)")
	d := capacity.Uniform(16, s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := capacity.CountInstances(s, d); err != nil {
			b.Fatal(err)
		}
	}
}

// T11 — Yannakakis vs plain backtracking on the dead-end workload.
func BenchmarkT11Yannakakis(b *testing.B) {
	d := instance.NewDatabase(gen.GraphSchema())
	v := func(x int64) Value { return Value{Type: 1, N: x} }
	for i := int64(1); i <= 6; i++ {
		d.MustInsert("E", v(i), v(i+1))
	}
	next := int64(1000)
	for i := int64(1); i <= 6; i++ {
		for k := 0; k < 40; k++ {
			d.MustInsert("E", v(i), v(next))
			next++
		}
	}
	q := gen.ChainQuery(6)
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EvalQuery(q, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("yannakakis", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := acyclic.Eval(q, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// T12 — UCQ containment (Sagiv–Yannakakis) over 8-wide unions.
func BenchmarkT12UCQContainment(b *testing.B) {
	u1 := &ucq.Query{}
	u2 := &ucq.Query{}
	for k := 0; k < 8; k++ {
		q1 := gen.ChainQuery(3 + k)
		q1.Head = q1.Head[:1]
		u1.Disjuncts = append(u1.Disjuncts, q1)
		q2 := gen.ChainQuery(2 + k)
		q2.Head = q2.Head[:1]
		u2.Disjuncts = append(u2.Disjuncts, q2)
	}
	gs := gen.GraphSchema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := ucq.Contained(u1, u2, gs, nil)
		if err != nil || !ok {
			b.Fatalf("ucq containment: %v %v", ok, err)
		}
	}
}

// E1 — batch engine vs sequential equivalence over one generated
// corpus: the sub-benches share the same pair set, so their ns/op are
// directly comparable (the engine side includes canonicalization,
// deduplication, and verdict caching; each iteration uses a fresh
// engine so nothing is amortized across iterations).
func BenchmarkT13EngineBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	fam, err := gen.PairCorpus(rng, "graph-long", 200)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]engine.Job, len(fam.Pairs))
	for i, p := range fam.Pairs {
		jobs[i] = engine.Job{Left: p.Left, Right: p.Right, Op: engine.OpEquivalent}
	}

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range fam.Pairs {
				if _, _, err := containment.EquivalentUnder(p.Left, p.Right, fam.Schema, fam.Deps); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := engine.New(fam.Schema, fam.Deps, engine.Options{CacheSize: 4 * len(jobs)})
			rep := e.Run(context.Background(), jobs)
			if rep.Errors > 0 {
				b.Fatalf("engine errors: %d", rep.Errors)
			}
		}
	})
}
