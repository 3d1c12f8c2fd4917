package dominance

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

func smallBounds() SearchBounds {
	return SearchBounds{MaxAtoms: 1, MaxEqs: 1, MaxViews: 500, MaxPairs: 50_000}
}

func TestEnumerateViewsShapes(t *testing.T) {
	src := schema.MustParse("R(a*:T1, b:T2)")
	target := src.Relations[0]
	views := EnumerateViews(src, target, smallBounds())
	if len(views) == 0 {
		t.Fatal("no views enumerated")
	}
	// The identity view must be among them.
	foundIdentity := false
	for _, q := range views {
		if err := q.Validate(src); err != nil {
			t.Fatalf("invalid view enumerated: %s: %v", q, err)
		}
		if len(q.Body) == 1 && len(q.Eqs) == 0 &&
			!q.Head[0].IsConst && !q.Head[1].IsConst &&
			q.Head[0].Var == q.Body[0].Vars[0] && q.Head[1].Var == q.Body[0].Vars[1] {
			foundIdentity = true
		}
	}
	if !foundIdentity {
		t.Error("identity view missing from enumeration")
	}
	// Infeasible target type: no views.
	bad := schema.MustParse("X(z*:T9)").Relations[0]
	if vs := EnumerateViews(src, bad, smallBounds()); len(vs) != 0 {
		t.Errorf("views for infeasible target: %d", len(vs))
	}
}

func TestSearchFindsIsomorphismWitness(t *testing.T) {
	s1 := schema.MustParse("R(a*:T1, b:T2)")
	s2 := schema.MustParse("P(x:T2, y*:T1)")
	w, found, stats, err := SearchDominance(context.Background(), s1, s2, smallBounds(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("no witness found; stats %+v", stats)
	}
	ok, err := VerifyWitness(w)
	if err != nil || !ok {
		t.Errorf("found witness fails verification: %v %v", ok, err)
	}
	eq, _, err := SearchEquivalence(context.Background(), s1, s2, smallBounds(), SearchOptions{})
	if err != nil || !eq {
		t.Errorf("SearchEquivalence = %v, %v; want true", eq, err)
	}
}

func TestSearchAsymmetricDominance(t *testing.T) {
	// S1 = R(a*) is dominated by S2 = R(a*, b): store a in both columns,
	// read it back.  The converse fails (nothing can store b).
	s1 := schema.MustParse("R(a*:T1)")
	s2 := schema.MustParse("P(a*:T1, b:T1)")
	_, up, _, err := SearchDominance(context.Background(), s1, s2, smallBounds(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !up {
		t.Error("S1 ≼ S2 witness not found (echo the key)")
	}
	_, down, stats, err := SearchDominance(context.Background(), s2, s1, smallBounds(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if down {
		t.Error("S2 ≼ S1 should have no witness")
	}
	if stats.Truncated {
		t.Log("warning: search truncated; negative result inconclusive")
	}
	// Hence not equivalent — matching Theorem 13 (not isomorphic).
	eq, _, err := SearchEquivalence(context.Background(), s1, s2, smallBounds(), SearchOptions{})
	if err != nil || eq {
		t.Errorf("SearchEquivalence = %v, %v; want false", eq, err)
	}
}

// The mini empirical Theorem 13: over an exhaustive space of small keyed
// schemas, bounded mapping search agrees exactly with the isomorphism
// test.  (The full version with wider bounds is experiment T1.)
func TestTheorem13EmpiricalMini(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search; skipped in -short")
	}
	space := gen.EnumerateKeyedSchemas(gen.SchemaSpace{
		MaxRelations: 1, MaxAttrs: 2, Types: 2,
	})
	if len(space) != 6 {
		t.Fatalf("space size = %d", len(space))
	}
	b := smallBounds()
	for i, s1 := range space {
		for j, s2 := range space {
			if j < i {
				continue
			}
			iso := schema.Isomorphic(s1, s2)
			eq, stats, err := SearchEquivalence(context.Background(), s1, s2, b, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Truncated {
				t.Fatalf("search truncated on pair (%d,%d); widen bounds", i, j)
			}
			if eq != iso {
				t.Errorf("Theorem 13 violated on\n%s\nvs\n%s\niso=%v search=%v",
					s1, s2, iso, eq)
			}
		}
	}
}

func TestSearchStatsPopulated(t *testing.T) {
	s1 := schema.MustParse("R(a*:T1)")
	s2 := schema.MustParse("P(a*:T1)")
	_, found, stats, err := SearchDominance(context.Background(), s1, s2, smallBounds(), SearchOptions{})
	if err != nil || !found {
		t.Fatalf("search failed: %v %v", found, err)
	}
	if stats.AlphaCandidates == 0 || stats.BetaCandidates == 0 {
		t.Errorf("candidate counts empty: %+v", stats)
	}
	if len(stats.ViewsPerRelation) != 1 {
		t.Errorf("ViewsPerRelation = %v", stats.ViewsPerRelation)
	}
}

// TestSearchEquivalenceStatsSumBothDirections checks that the stats of
// an equivalence search are the sums of its two dominance searches'
// stats, and that ViewsPerRelation lists the first direction's
// relations, then the second's.  R and P are isomorphic, so S1 ≼ S2
// holds; Q keeps a column R cannot rebuild, so S2 ≼ S1 fails after
// finding a valid α of its own.
func TestSearchEquivalenceStatsSumBothDirections(t *testing.T) {
	ctx := context.Background()
	s1 := schema.MustParse("R(a*:T1, b:T2)")
	s2 := schema.MustParse("P(x:T2, y*:T1)\nQ(z:T1)")
	b := smallBounds()
	_, ok1, fwd, err := SearchDominance(ctx, s1, s2, b, SearchOptions{})
	if err != nil || !ok1 {
		t.Fatalf("S1 ≼ S2: found %v, err %v; want a witness", ok1, err)
	}
	_, ok2, rev, err := SearchDominance(ctx, s2, s1, b, SearchOptions{})
	if err != nil || ok2 {
		t.Fatalf("S2 ≼ S1: found %v, err %v; want none", ok2, err)
	}
	eq, st, err := SearchEquivalence(ctx, s1, s2, b, SearchOptions{})
	if err != nil || eq {
		t.Fatalf("SearchEquivalence = %v, %v; want false", eq, err)
	}
	if fwd.ValidAlphas == 0 || rev.ValidAlphas == 0 {
		t.Fatalf("each direction should find a valid α: forward %+v, reverse %+v", fwd, rev)
	}
	want := SearchStats{
		ViewsPerRelation: append(append([]int(nil), fwd.ViewsPerRelation...), rev.ViewsPerRelation...),
		AlphaCandidates:  fwd.AlphaCandidates + rev.AlphaCandidates,
		BetaCandidates:   fwd.BetaCandidates + rev.BetaCandidates,
		ValidAlphas:      fwd.ValidAlphas + rev.ValidAlphas,
		ValidBetas:       fwd.ValidBetas + rev.ValidBetas,
		PairsChecked:     fwd.PairsChecked + rev.PairsChecked,
		Truncated:        fwd.Truncated || rev.Truncated,
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("SearchEquivalence stats\n got  %+v\n want %+v (forward %+v, reverse %+v)", st, want, fwd, rev)
	}
	if len(st.ViewsPerRelation) != len(s2.Relations)+len(s1.Relations) {
		t.Fatalf("ViewsPerRelation = %v, want one entry per relation of S2, then of S1", st.ViewsPerRelation)
	}
}

func TestSearchTruncation(t *testing.T) {
	s1 := schema.MustParse("R(a*:T1, b:T1)")
	s2 := schema.MustParse("P(a*:T1, b:T2)") // not isomorphic: no witness
	b := smallBounds()
	b.MaxPairs = 1
	_, found, stats, err := SearchDominance(context.Background(), s1, s2, b, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("found witness for non-isomorphic pair")
	}
	if stats.PairsChecked > 1 {
		t.Errorf("PairsChecked = %d beyond cap", stats.PairsChecked)
	}
}

// With constants offered as head terms the search space grows, but
// Theorem 13 still predicts perfect agreement with isomorphism: constant
// heads can never carry the data needed for β∘α = id.
func TestTheorem13WithConstants(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search; skipped in -short")
	}
	b := smallBounds()
	b.Constants = []value.Value{{Type: 1, N: 1}, {Type: 2, N: 1}}
	space := gen.EnumerateKeyedSchemas(gen.SchemaSpace{
		MaxRelations: 1, MaxAttrs: 2, Types: 2,
	})
	for i, s1 := range space {
		for j := i; j < len(space); j++ {
			s2 := space[j]
			iso := schema.Isomorphic(s1, s2)
			eq, stats, err := SearchEquivalence(context.Background(), s1, s2, b, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Truncated {
				t.Fatalf("truncated on (%d,%d)", i, j)
			}
			if eq != iso {
				t.Errorf("constants broke Theorem 13 on\n%s\nvs\n%s", s1, s2)
			}
		}
	}
}

func TestEnumerateViewsWithConstants(t *testing.T) {
	src := schema.MustParse("R(a*:T1)")
	target, _ := schema.ParseRelation("P(x*:T1, c:T2)")
	// Without constants, the T2 head position is infeasible.
	if vs := EnumerateViews(src, target, smallBounds()); len(vs) != 0 {
		t.Errorf("expected no views without constants, got %d", len(vs))
	}
	b := smallBounds()
	b.Constants = []value.Value{{Type: 2, N: 7}}
	vs := EnumerateViews(src, target, b)
	if len(vs) == 0 {
		t.Fatal("constant head should make views feasible")
	}
	for _, q := range vs {
		if err := q.Validate(src); err != nil {
			t.Fatalf("invalid view: %v", err)
		}
		if !q.Head[1].IsConst {
			t.Errorf("second head position should be the constant: %s", q)
		}
	}
}

// Hull's 1986 theorem (the paper's substrate): UNKEYED schemas are
// equivalent iff identical up to renaming and re-ordering.  Query
// mappings between unkeyed schemas are always valid, so the search
// exercises a different path than the keyed case.
func TestHullTheoremUnkeyedMini(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search; skipped in -short")
	}
	space := gen.EnumerateUnkeyedSchemas(gen.SchemaSpace{
		MaxRelations: 1, MaxAttrs: 2, Types: 2,
	})
	b := smallBounds()
	for i, s1 := range space {
		for j := i; j < len(space); j++ {
			s2 := space[j]
			iso := schema.Isomorphic(s1, s2)
			eq, stats, err := SearchEquivalence(context.Background(), s1, s2, b, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Truncated {
				t.Fatalf("truncated on (%d,%d)", i, j)
			}
			if eq != iso {
				t.Errorf("Hull's theorem violated on\n%s\nvs\n%s\niso=%v eq=%v", s1, s2, iso, eq)
			}
		}
	}
}

// TestSearchCancellation pins the ctx threading: a cancelled context
// must abort the pair loop with the context's error instead of running
// the bounded search to completion (the pre-fix search had no ctx entry
// point at all).
func TestSearchCancellation(t *testing.T) {
	s1 := schema.MustParse("R(a*:T1, b:T2)")
	s2 := schema.MustParse("P(x:T2, y*:T1)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, found, _, err := SearchDominance(ctx, s1, s2, smallBounds(), SearchOptions{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if found {
			t.Fatalf("workers=%d: witness reported under cancelled ctx", workers)
		}
	}
	if _, _, err := SearchEquivalence(ctx, s1, s2, smallBounds(), SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchEquivalence: err = %v, want context.Canceled", err)
	}
}

// TestSearchCtxDeciderWins checks that a custom decider set in
// SearchOptions.Equiv decides the identity tests, with the search's
// context.
func TestSearchCtxDeciderWins(t *testing.T) {
	s1 := schema.MustParse("R(a*:T1, b:T2)")
	s2 := schema.MustParse("P(x:T2, y*:T1)")
	var calls atomic.Int64
	opts := SearchOptions{
		Equiv: func(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, containment.Stats, error) {
			calls.Add(1)
			return containment.EquivalentUnderCtx(ctx, q1, q2, s, deps)
		},
	}
	_, found, _, err := SearchDominance(context.Background(), s1, s2, smallBounds(), opts)
	if err != nil || !found {
		t.Fatalf("search with a custom Equiv: found=%v err=%v", found, err)
	}
	if calls.Load() == 0 {
		t.Fatal("custom Equiv never called")
	}
}
