package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"keyedeq/internal/chase"
	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/dominance"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/invariant"
	"keyedeq/internal/mapping"
	"keyedeq/internal/schema"
)

// T3 — containment scaling by query shape.  For each shape and size,
// decide q(n) ⊑ q(n-1) and q(n-1) ⊑ q(n) and report time and search
// nodes.  Chains and stars stay polynomial (the greedy join order binds
// variables incrementally); cliques grow combinatorially.
func T3Containment(maxChain, maxStar, maxClique int) *Table {
	t := &Table{
		ID:      "T3",
		Title:   "CQ containment scaling (Chandra-Merlin homomorphism test)",
		Columns: []string{"shape", "size", "contained", "time", "nodes"},
	}
	gs := gen.GraphSchema()
	run := func(shape string, build func(int) *cq.Query, n int) {
		// Unary heads make the classical containments hold: "has an
		// outgoing n-chain" implies "has an outgoing (n-1)-chain", and
		// likewise for stars and cliques.
		q1 := unaryHead(build(n))
		q2 := unaryHead(build(n - 1))
		var ok bool
		var stats containment.Stats
		d := timed(func() {
			var err error
			ok, stats, err = containment.ContainedUnder(q1, q2, gs, nil)
			invariant.Must(err)
		})
		t.Add(shape, n, ok, d, stats.Nodes)
	}
	for n := 2; n <= maxChain; n += 2 {
		run("chain", gen.ChainQuery, n)
	}
	for n := 2; n <= maxStar; n += 2 {
		run("star", gen.StarQuery, n)
	}
	for n := 3; n <= maxClique; n++ {
		run("clique", gen.CliqueQuery, n)
	}
	t.Note("chain(n) ⊑ chain(n-1) is true (longer paths imply shorter); star/star likewise")
	return t
}

// unaryHead clones q and projects its head to the first term, turning
// the endpoint queries into the boolean-style reachability patterns of
// the classical containment examples.
func unaryHead(q *cq.Query) *cq.Query {
	c := q.Clone()
	c.Head = c.Head[:1]
	return c
}

// T4 — chase scaling: canonical instances of growing size chased with a
// growing number of key EGDs.
func T4Chase(sizes []int, depCounts []int, seed int64) *Table {
	t := &Table{
		ID:      "T4",
		Title:   "Chase scaling (key EGDs over labeled-null tableaux)",
		Columns: []string{"rows", "egds", "iterations", "merges", "time"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, rows := range sizes {
		for _, nd := range depCounts {
			s, deps := chaseWorkloadSchema(nd)
			tb := chase.NewTableau(s)
			fillChaseWorkload(tb, s, rng, rows)
			var stats chase.Stats
			d := timed(func() {
				var err error
				stats, err = tb.Run(deps)
				invariant.Must(err)
			})
			t.Add(rows, len(deps), stats.Iterations, stats.Merges, d)
		}
	}
	return t
}

// chaseWorkloadSchema builds nd relations R0..R(nd-1), each keyed on its
// first attribute, yielding nd key EGDs.
func chaseWorkloadSchema(nd int) (*schema.Schema, []fd.FD) {
	rs := make([]*schema.Relation, nd)
	for i := range rs {
		rs[i] = &schema.Relation{
			Name: fmt.Sprintf("R%d", i),
			Attrs: []schema.Attribute{
				{Name: "k", Type: 1},
				{Name: "a", Type: 2},
				{Name: "b", Type: 3},
			},
			Key: []int{0},
		}
	}
	s := schema.MustNew(rs...)
	return s, fd.KeyFDs(s)
}

// fillChaseWorkload adds rows whose keys collide frequently, forcing
// merge cascades.
func fillChaseWorkload(tb *chase.Tableau, s *schema.Schema, rng *rand.Rand, rows int) {
	nKeys := rows/3 + 1
	keys := make([]chase.Term, nKeys)
	for i := range keys {
		keys[i] = tb.NewNull(1)
	}
	for i := 0; i < rows; i++ {
		rel := s.Relations[rng.Intn(len(s.Relations))]
		cells := []chase.Term{
			keys[rng.Intn(nKeys)],
			tb.NewNull(2),
			tb.NewNull(3),
		}
		invariant.Must(tb.AddRow(rel.Name, cells))
	}
}

// T5 — mapping composition and the symbolic identity test as schema
// width grows.
func T5MappingIdentity(maxAttrs int, seed int64) *Table {
	t := &Table{
		ID:      "T5",
		Title:   "Mapping composition + β∘α=id decision vs schema width",
		Columns: []string{"attrs", "relations", "compose", "identity-test"},
	}
	rng := rand.New(rand.NewSource(seed))
	for attrs := 1; attrs <= maxAttrs; attrs++ {
		s1 := gen.RandomKeyedSchema(rng, 2, attrs, 3)
		s2, iso := schema.RandomIsomorph(s1, rng)
		alpha, beta, err := mapping.FromIsomorphism(s1, s2, iso)
		invariant.Must(err)
		var comp *mapping.Mapping
		dCompose := timed(func() {
			comp, err = mapping.Compose(beta, alpha)
			invariant.Must(err)
		})
		dIdentity := timed(func() {
			ok, err := comp.IsIdentityOn(context.Background(), fd.KeyFDs(s1), nil)
			invariant.Mustf(err == nil && ok, "identity failed: %v %v", ok, err)
		})
		t.Add(attrs, len(s1.Relations), dCompose, dIdentity)
	}
	return t
}

// T7 — decision procedures compared: the canonical-form test vs bounded
// mapping search on isomorphic pairs of growing width.  Theorem 13 is
// what licenses the fast path; this table shows what it saves.
func T7DecisionCompare(maxAttrs int, bounds dominance.SearchBounds, seed int64) *Table {
	t := &Table{
		ID:      "T7",
		Title:   "Deciding equivalence: canonical form vs bounded mapping search",
		Columns: []string{"attrs", "case", "canonical", "search", "pairs-checked", "speedup"},
	}
	run := func(attrs int, kind string, s1, s2 *schema.Schema, expectEq bool) {
		var isoRes bool
		dCanon := timed(func() {
			for i := 0; i < 1000; i++ {
				isoRes = schema.Isomorphic(s1, s2)
			}
		})
		dCanon /= 1000
		var stats dominance.SearchStats
		var searchRes bool
		dSearch := timed(func() {
			var err error
			searchRes, stats, err = dominance.SearchEquivalence(context.Background(), s1, s2, bounds, dominance.SearchOptions{})
			invariant.Must(err)
		})
		if isoRes != expectEq {
			t.Note("fixture broken at attrs=%d/%s", attrs, kind)
		}
		if isoRes != searchRes && !stats.Truncated {
			t.Note("DISAGREEMENT at attrs=%d/%s", attrs, kind)
		}
		speedup := "-"
		if dCanon > 0 {
			speedup = fmt.Sprintf("%.0fx", float64(dSearch)/float64(dCanon))
		}
		t.Add(attrs, kind, dCanon, dSearch, stats.PairsChecked, speedup)
	}
	rng := rand.New(rand.NewSource(seed))
	for attrs := 1; attrs <= maxAttrs; attrs++ {
		// Worst-case shape: one relation, all attributes one type (the
		// head-assignment combinatorics of F2).
		r := &schema.Relation{Name: "R", Key: []int{0}}
		for p := 0; p < attrs; p++ {
			r.Attrs = append(r.Attrs, schema.Attribute{
				Name: fmt.Sprintf("a%d", p), Type: 1,
			})
		}
		s1 := schema.MustNew(r)
		// Isomorphic pair: search succeeds (early exit on the witness).
		s2, _ := schema.RandomIsomorph(s1, rng)
		run(attrs, "isomorphic", s1, s2, true)
		// Non-isomorphic near-miss (widened key): the search must
		// exhaust the candidate space — the exponential case Theorem 13
		// spares us.
		if attrs >= 2 {
			r3 := r.Clone()
			r3.Key = []int{0, 1}
			s3 := schema.MustNew(r3)
			run(attrs, "near-miss", s1, s3, false)
		}
	}
	t.Note("canonical form is the Theorem 13 fast path; exhausting the search space explodes with width")
	return t
}

// T8 — FD closure and implication scaling.
func T8FDClosure(attrCounts, depCounts []int, seed int64) *Table {
	t := &Table{
		ID:      "T8",
		Title:   "FD closure / implication scaling (Armstrong fixpoint)",
		Columns: []string{"attrs", "deps", "closure/op", "implies/op"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, na := range attrCounts {
		for _, nd := range depCounts {
			all := fd.Set(0)
			for p := 0; p < na; p++ {
				all = all.Union(fd.NewSet(p))
			}
			deps := make([]fd.Dep, nd)
			for i := range deps {
				deps[i] = fd.Dep{
					X: fd.Set(rng.Int63()) & all,
					Y: fd.Set(rng.Int63()) & all,
				}
			}
			const reps = 200
			dClosure := timed(func() {
				for i := 0; i < reps; i++ {
					fd.Closure(fd.Set(rng.Int63())&all, deps)
				}
			})
			dImplies := timed(func() {
				for i := 0; i < reps; i++ {
					fd.Implies(deps, fd.Dep{
						X: fd.Set(rng.Int63()) & all,
						Y: fd.Set(rng.Int63()) & all,
					})
				}
			})
			t.Add(na, nd, perOp(dClosure, reps), perOp(dImplies, reps))
		}
	}
	return t
}

// F1 — containment time vs query size, one series per shape (the figure
// version of T3).
func F1ContainmentCurve(maxChain, maxStar, maxClique int) *Table {
	t := &Table{
		ID:      "F1",
		Title:   "Figure: containment time vs query size (series per shape)",
		Columns: []string{"shape", "size", "micros", "nodes"},
	}
	gs := gen.GraphSchema()
	series := []struct {
		name  string
		build func(int) *cq.Query
		max   int
	}{
		{"chain", gen.ChainQuery, maxChain},
		{"star", gen.StarQuery, maxStar},
		{"clique", gen.CliqueQuery, maxClique},
	}
	for _, sr := range series {
		start := 2
		if sr.name == "clique" {
			start = 3
		}
		for n := start; n <= sr.max; n++ {
			q1 := unaryHead(sr.build(n))
			q2 := unaryHead(sr.build(n - 1))
			var stats containment.Stats
			d := timed(func() {
				var err error
				_, stats, err = containment.ContainedUnder(q1, q2, gs, nil)
				invariant.Must(err)
			})
			t.Add(sr.name, n, float64(d)/float64(time.Microsecond), stats.Nodes)
		}
	}
	return t
}

// F2 — the size of the candidate-mapping search space vs schema width:
// the reason Theorem 13's syntactic test matters.
func F2SearchSpace(maxAttrs int, bounds dominance.SearchBounds) *Table {
	t := &Table{
		ID:      "F2",
		Title:   "Figure: candidate views per relation vs schema width",
		Columns: []string{"attrs", "views", "alpha-mappings"},
	}
	for attrs := 1; attrs <= maxAttrs; attrs++ {
		// One relation, all attributes one type: worst case for head
		// assignment combinatorics.
		r := &schema.Relation{Name: "R", Key: []int{0}}
		for p := 0; p < attrs; p++ {
			r.Attrs = append(r.Attrs, schema.Attribute{
				Name: fmt.Sprintf("a%d", p), Type: 1,
			})
		}
		s := schema.MustNew(r)
		views := dominance.EnumerateViews(s, s.Relations[0], bounds)
		t.Add(attrs, len(views), len(views)) // one relation: mappings = views
	}
	t.Note("bounds: MaxAtoms=%d MaxEqs=%d (capped at MaxViews=%d)",
		bounds.MaxAtoms, bounds.MaxEqs, bounds.MaxViews)
	return t
}

// F3 — chase fixpoint iterations and time vs instance size, one series
// per dependency count.
func F3ChaseCurve(sizes []int, depCounts []int, seed int64) *Table {
	t := &Table{
		ID:      "F3",
		Title:   "Figure: chase iterations/time vs instance size (series per #EGDs)",
		Columns: []string{"egds", "rows", "iterations", "merges", "micros"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, nd := range depCounts {
		for _, rows := range sizes {
			s, deps := chaseWorkloadSchema(nd)
			tb := chase.NewTableau(s)
			fillChaseWorkload(tb, s, rng, rows)
			var stats chase.Stats
			d := timed(func() {
				var err error
				stats, err = tb.Run(deps)
				invariant.Must(err)
			})
			t.Add(len(deps), rows, stats.Iterations, stats.Merges,
				float64(d)/float64(time.Microsecond))
		}
	}
	return t
}
