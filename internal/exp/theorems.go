package exp

import (
	"context"
	"fmt"
	"math/rand"

	"keyedeq/internal/cq"
	"keyedeq/internal/dominance"
	"keyedeq/internal/gen"
	"keyedeq/internal/instance"
	"keyedeq/internal/mapping"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// T1 — Theorem 13, exhaustively.  Enumerate every keyed schema in a small
// space; for every unordered pair, compare the canonical-form isomorphism
// test against bounded conjunctive-mapping search.  The theorem predicts
// perfect agreement: equivalent ⟺ isomorphic.
func T1TheoremExhaustive(space gen.SchemaSpace, bounds dominance.SearchBounds) *Table {
	t := &Table{
		ID:      "T1",
		Title:   "Theorem 13 exhaustively: bounded mapping search vs isomorphism",
		Columns: []string{"schemas", "pairs", "isomorphic", "search-equiv", "agree", "truncated"},
	}
	schemas := gen.EnumerateKeyedSchemas(space)
	var pairs, iso, searchEq, agree, truncated int
	for i, s1 := range schemas {
		for j := i; j < len(schemas); j++ {
			s2 := schemas[j]
			pairs++
			isIso := schema.Isomorphic(s1, s2)
			eq, stats, err := dominance.SearchEquivalence(context.Background(), s1, s2, bounds, dominance.SearchOptions{})
			if err != nil {
				t.Note("error on pair (%d,%d): %v", i, j, err)
				continue
			}
			if stats.Truncated {
				truncated++
			}
			if isIso {
				iso++
			}
			if eq {
				searchEq++
			}
			if eq == isIso {
				agree++
			} else {
				t.Note("DISAGREEMENT on pair (%d,%d):\n%s\nvs\n%s", i, j, s1, s2)
			}
		}
	}
	t.Add(len(schemas), pairs, iso, searchEq,
		fmt.Sprintf("%d/%d", agree, pairs), truncated)
	t.Note("Theorem 13 predicts agree = pairs (equivalence ⟺ isomorphism)")
	return t
}

// T2 — Lemmas 1 and 2 on random queries.  Random identity-join queries
// are saturated and productized; answers are compared on random
// instances.  The lemmas predict zero violations.
func T2SaturationProduct(trials int, seed int64) *Table {
	t := &Table{
		ID:      "T2",
		Title:   "Lemmas 1-2: ij-saturation and product queries on random inputs",
		Columns: []string{"atoms", "queries", "instances", "lemma1-viol", "lemma2-viol"},
	}
	rng := rand.New(rand.NewSource(seed))
	s := schema.MustParse("R(a:T1, b:T1)\nP(c:T1, d:T1)")
	for atoms := 1; atoms <= 5; atoms++ {
		var queries, instances, v1, v2 int
		for trial := 0; trial < trials; trial++ {
			q := randomIdentityJoinQuery(rng, atoms)
			if q.Validate(s) != nil {
				continue
			}
			queries++
			sat, err := cq.Saturate(q)
			if err != nil {
				continue
			}
			prod, err := cq.ToProduct(sat)
			if err != nil {
				v1++
				continue
			}
			under, err := cq.ProductUnder(q)
			if err != nil {
				v2++
				continue
			}
			for k := 0; k < 10; k++ {
				d := randomInstance(s, rng, 4, 3)
				instances++
				aSat, err1 := cq.Eval(sat, d)
				aProd, err2 := cq.Eval(prod, d)
				if err1 != nil || err2 != nil || !aSat.Equal(aProd) {
					v1++
				}
				aq, err3 := cq.Eval(q, d)
				aUnder, err4 := cq.Eval(under, d)
				if err3 != nil || err4 != nil ||
					!aUnder.SubsetOf(aq) || (aq.Len() > 0 && aUnder.Len() == 0) {
					v2++
				}
			}
		}
		t.Add(atoms, queries, instances, v1, v2)
	}
	t.Note("Lemma 1: saturated ≡ product; Lemma 2: q̃ ⊑ q and non-emptiness preserved")
	return t
}

// randomIdentityJoinQuery builds a query over R/P with only identity
// joins: duplicate atoms of the same relation with some positions
// equated position-to-position.
func randomIdentityJoinQuery(rng *rand.Rand, atoms int) *cq.Query {
	q := &cq.Query{HeadRel: "V"}
	rels := []string{"R", "P"}
	for i := 0; i < atoms; i++ {
		rel := rels[rng.Intn(len(rels))]
		q.Body = append(q.Body, cq.Atom{Rel: rel, Vars: []cq.Var{
			cq.Var(fmt.Sprintf("v%d_0", i)),
			cq.Var(fmt.Sprintf("v%d_1", i)),
		}})
	}
	// Identity joins: equate position p of same-relation atom pairs.
	for i := 0; i < atoms; i++ {
		for j := i + 1; j < atoms; j++ {
			if q.Body[i].Rel != q.Body[j].Rel || rng.Intn(2) == 0 {
				continue
			}
			p := rng.Intn(2)
			q.Eqs = append(q.Eqs, cq.Equality{
				Left:  q.Body[i].Vars[p],
				Right: cq.Term{Var: q.Body[j].Vars[p]},
			})
		}
	}
	q.Head = []cq.Term{
		{Var: q.Body[0].Vars[0]},
		{Var: q.Body[rng.Intn(atoms)].Vars[1]},
	}
	return q
}

func randomInstance(s *schema.Schema, rng *rand.Rand, maxTuples, domain int) *instance.Database {
	d := instance.NewDatabase(s)
	for ri, r := range s.Relations {
		n := rng.Intn(maxTuples + 1)
		for i := 0; i < n; i++ {
			tup := make(instance.Tuple, r.Arity())
			for p, a := range r.Attrs {
				tup[p] = value.Value{Type: a.Type, N: int64(rng.Intn(domain) + 1)}
			}
			d.Relations[ri].MustInsert(tup)
		}
	}
	return d
}

// T6 — Theorem 9 (κ-reduction) on random dominance pairs.  Each trial
// draws a random keyed schema, perturbs it into an isomorph, builds the
// witness pair, runs the κ-reduction, and verifies β_κ∘α_κ = id.  The
// theorem predicts zero failures.
func T6KappaReduction(trials int, seed int64) *Table {
	t := &Table{
		ID:      "T6",
		Title:   "Theorem 9: κ-reduction of dominance pairs",
		Columns: []string{"max-attrs", "trials", "verified", "failures"},
	}
	rng := rand.New(rand.NewSource(seed))
	for maxAttrs := 1; maxAttrs <= 4; maxAttrs++ {
		verified, failures := 0, 0
		for trial := 0; trial < trials; trial++ {
			s1 := gen.RandomKeyedSchema(rng, 2, maxAttrs, 3)
			s2, iso := schema.RandomIsomorph(s1, rng)
			alpha, beta, err := mapping.FromIsomorphism(s1, s2, iso)
			if err != nil {
				failures++
				continue
			}
			aK, bK, err := dominance.KappaReduction(alpha, beta, nil)
			if err != nil {
				failures++
				continue
			}
			ok, err := dominance.VerifyKappaPair(aK, bK)
			if err != nil || !ok {
				failures++
				continue
			}
			verified++
		}
		t.Add(maxAttrs, trials, verified, failures)
	}
	t.Note("Theorem 9 predicts failures = 0")
	return t
}

// TLemmas — receives-lemma validation (Lemmas 3-5, 10-12) on random
// dominance pairs, plus Theorem 6 FD transfer checked semantically.
func TLemmas(trials int, seed int64) *Table {
	t := &Table{
		ID:      "T2b",
		Title:   "Lemmas 3-5, 10-12 and Theorem 6 on random dominance pairs",
		Columns: []string{"lemma", "trials", "holds", "violations"},
	}
	rng := rand.New(rand.NewSource(seed))
	type counter struct{ holds, viol int }
	counts := map[string]*counter{
		"L3": {}, "L4": {}, "L5": {}, "L10": {}, "L11": {}, "L12": {}, "T6-fds": {},
	}
	for trial := 0; trial < trials; trial++ {
		s1 := gen.RandomKeyedSchema(rng, 2, 3, 2)
		s2, iso := schema.RandomIsomorph(s1, rng)
		alpha, beta, err := mapping.FromIsomorphism(s1, s2, iso)
		if err != nil {
			continue
		}
		check := func(name string, ok bool) {
			if ok {
				counts[name].holds++
			} else {
				counts[name].viol++
			}
		}
		check("L3", mapping.Lemma3Holds(alpha, beta))
		check("L4", mapping.Lemma4Holds(alpha, beta))
		check("L5", mapping.Lemma5Holds(alpha, beta))
		check("L10", mapping.Lemma10Holds(beta))
		check("L11", mapping.Lemma11Holds(beta))
		check("L12", mapping.Lemma12Holds(beta))
		fds := mapping.TransferredFDs(beta)
		ok := true
		for k := 0; k < 5; k++ {
			d := gen.RandomKeyedInstance(s1, rng, 4, nil)
			for _, f := range fds {
				if !f.Holds(d) {
					ok = false
				}
			}
		}
		check("T6-fds", ok)
	}
	for _, name := range []string{"L3", "L4", "L5", "L10", "L11", "L12", "T6-fds"} {
		c := counts[name]
		t.Add(name, c.holds+c.viol, c.holds, c.viol)
	}
	t.Note("all violations must be 0 on dominance pairs")
	return t
}
