package dominance

import (
	"context"
	"fmt"

	"keyedeq/internal/cq"
	"keyedeq/internal/mapping"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// This file implements the κ-reduction of Theorem 9: if S1 ≼ S2 by (α, β)
// then κ(S1) ≼ κ(S2) by (α_κ, β_κ), where
//
//	α_κ = π_κ ∘ α ∘ γ        β_κ = π_κ ∘ β ∘ δ
//
// γ re-creates the non-key attributes of S1 with fixed constants from the
// choice function f, and δ re-creates the non-key attributes of S2 using
// the four-case analysis over what each attribute receives under α
// (constants, non-key attributes, key attributes with the Lemma 7
// witness, or nothing relevant).

// Gamma builds γ : i(κ(S)) → i(S) for a keyed schema S: for each relation
// R with n key and m non-key attributes,
//
//	R(K1..Kn, c1..cm) :- R'(K1..Kn)
//
// where each c_i = f(T) for the attribute's type T.
func Gamma(s *schema.Schema, choice *value.Choice) (*mapping.Mapping, error) {
	ks, pos := schema.Kappa(s)
	qs := make([]*cq.Query, len(s.Relations))
	for i, r := range s.Relations {
		kr := ks.Relations[i]
		q := &cq.Query{HeadRel: r.Name}
		atom := cq.Atom{Rel: kr.Name}
		headByPos := make(map[int]cq.Term)
		for j := range kr.Attrs {
			v := cq.Var(fmt.Sprintf("K%d", j))
			atom.Vars = append(atom.Vars, v)
			headByPos[pos[i][j]] = cq.Term{Var: v}
		}
		q.Body = []cq.Atom{atom}
		for p, a := range r.Attrs {
			if t, ok := headByPos[p]; ok {
				q.Head = append(q.Head, t)
			} else {
				q.Head = append(q.Head, cq.C(choice.Of(a.Type)))
			}
		}
		qs[i] = q
	}
	return mapping.New(ks, s, qs)
}

// ProjKappa builds π_κ : i(S) → i(κ(S)) as a query mapping: each κ
// relation is the key projection of its original.
func ProjKappa(s *schema.Schema) (*mapping.Mapping, error) {
	ks, pos := schema.Kappa(s)
	qs := make([]*cq.Query, len(ks.Relations))
	for i, r := range s.Relations {
		kr := ks.Relations[i]
		q := &cq.Query{HeadRel: kr.Name}
		atom := cq.Atom{Rel: r.Name}
		for p := range r.Attrs {
			atom.Vars = append(atom.Vars, cq.Var(fmt.Sprintf("X%d", p)))
		}
		q.Body = []cq.Atom{atom}
		for _, p := range pos[i] {
			q.Head = append(q.Head, cq.Term{Var: atom.Vars[p]})
		}
		qs[i] = q
	}
	return mapping.New(s, ks, qs)
}

// Delta builds δ : i(κ(S2)) → i(S2) for a dominance pair (α, β) with
// α : S1 → S2 and β : S2 → S1, following the paper's four cases for each
// non-key attribute B (of type T) of an S2 relation R:
//
//  1. B receives a constant b under α            → b
//  2. B receives a non-key attribute of S1 under α → f(T)
//  3. B receives a key attribute K of S1 under α, and either B is
//     received by K under β or B participates in a join/selection in β
//     → the key variable K' of R that Lemma 7 guarantees shares B's value
//  4. otherwise → f(T)
func Delta(alpha, beta *mapping.Mapping, choice *value.Choice) (*mapping.Mapping, error) {
	s1, s2 := alpha.Src, alpha.Dst
	ks2, pos := schema.Kappa(s2)
	qs := make([]*cq.Query, len(s2.Relations))
	for j, r := range s2.Relations {
		kr := ks2.Relations[j]
		q := &cq.Query{HeadRel: r.Name}
		atom := cq.Atom{Rel: kr.Name}
		keyVarOf := make(map[int]cq.Var) // original key position -> κ var
		for kj := range kr.Attrs {
			v := cq.Var(fmt.Sprintf("K%d", kj))
			atom.Vars = append(atom.Vars, v)
			keyVarOf[pos[j][kj]] = v
		}
		q.Body = []cq.Atom{atom}
		defQuery := alpha.QueryFor(r.Name)
		recs := cq.Receives(defQuery)
		for p, a := range r.Attrs {
			if v, isKey := keyVarOf[p]; isKey {
				q.Head = append(q.Head, cq.Term{Var: v})
				continue
			}
			term, err := deltaCase(alpha, beta, s1, r, p, a.Type, recs[p], defQuery, keyVarOf, choice)
			if err != nil {
				return nil, err
			}
			q.Head = append(q.Head, term)
		}
		qs[j] = q
	}
	return mapping.New(ks2, s2, qs)
}

// deltaCase resolves one non-key attribute B = (r.Name, p) per the four
// cases.
func deltaCase(alpha, beta *mapping.Mapping, s1 *schema.Schema, r *schema.Relation,
	p int, typ value.Type, rec cq.Received, defQuery *cq.Query,
	keyVarOf map[int]cq.Var, choice *value.Choice) (cq.Term, error) {

	// Case 1: receives a constant.
	if rec.HasConst {
		return cq.C(rec.Const), nil
	}
	// Classify received S1 attributes.
	receivesNonKey := false
	var receivedKeys []cq.SchemaAttr
	for _, sa := range rec.Attrs {
		rel1 := s1.Relation(sa.Rel)
		if rel1 == nil {
			continue
		}
		if rel1.IsKeyPos(sa.Pos) {
			receivedKeys = append(receivedKeys, sa)
		} else {
			receivesNonKey = true
		}
	}
	// Case 2: receives a non-key attribute of S1.
	if receivesNonKey {
		return cq.C(choice.Of(typ)), nil
	}
	// Case 3: receives a key attribute K with the extra hypothesis.
	bRef := mapping.SchemaAttrRef{Rel: r.Name, Pos: p}
	for _, k := range receivedKeys {
		kRef := mapping.SchemaAttrRef{Rel: k.Rel, Pos: k.Pos}
		if beta.AttrReceives(kRef, bRef) || beta.InvolvedInCondition(bRef) {
			kp, ok := lemma7Witness(defQuery, r, p)
			if !ok {
				return cq.Term{}, fmt.Errorf("dominance: Lemma 7 witness missing for %s.%d; (α, β) is not a dominance pair", r.Name, p)
			}
			return cq.Term{Var: keyVarOf[kp]}, nil
		}
	}
	// Case 4.
	return cq.C(choice.Of(typ)), nil
}

// lemma7Witness finds the key position K′ of R whose head variable is in
// the same equality class as the head variable at position p in the query
// defining R under α — the witness Lemma 7 guarantees to exist.
func lemma7Witness(defQuery *cq.Query, r *schema.Relation, p int) (int, bool) {
	if defQuery.Head[p].IsConst {
		return 0, false
	}
	eq := cq.NewEqClasses(defQuery)
	v := defQuery.Head[p].Var
	for _, kp := range r.Key {
		h := defQuery.Head[kp]
		if !h.IsConst && eq.Same(h.Var, v) {
			return kp, true
		}
	}
	return 0, false
}

// KappaReduction constructs (α_κ, β_κ) from a dominance pair (α, β) per
// Theorem 9.  The caller may verify the result with VerifyKappaPair.
func KappaReduction(alpha, beta *mapping.Mapping, choice *value.Choice) (alphaK, betaK *mapping.Mapping, err error) {
	if choice == nil {
		choice = &value.Choice{}
	}
	gamma, err := Gamma(alpha.Src, choice)
	if err != nil {
		return nil, nil, fmt.Errorf("dominance: building γ: %v", err)
	}
	delta, err := Delta(alpha, beta, choice)
	if err != nil {
		return nil, nil, fmt.Errorf("dominance: building δ: %v", err)
	}
	pk2, err := ProjKappa(alpha.Dst)
	if err != nil {
		return nil, nil, err
	}
	pk1, err := ProjKappa(beta.Dst)
	if err != nil {
		return nil, nil, err
	}
	ag, err := mapping.Compose(alpha, gamma)
	if err != nil {
		return nil, nil, fmt.Errorf("dominance: composing α∘γ: %v", err)
	}
	alphaK, err = mapping.Compose(pk2, ag)
	if err != nil {
		return nil, nil, err
	}
	bd, err := mapping.Compose(beta, delta)
	if err != nil {
		return nil, nil, fmt.Errorf("dominance: composing β∘δ: %v", err)
	}
	betaK, err = mapping.Compose(pk1, bd)
	if err != nil {
		return nil, nil, err
	}
	return alphaK, betaK, nil
}

// VerifyKappaPair checks that β_κ ∘ α_κ is the identity on i(κ(S1)).
// κ-schemas are unkeyed, so the identity must hold with no dependencies.
func VerifyKappaPair(alphaK, betaK *mapping.Mapping) (bool, error) {
	comp, err := mapping.Compose(betaK, alphaK)
	if err != nil {
		return false, err
	}
	return comp.IsIdentityOn(context.Background(), nil, nil)
}
