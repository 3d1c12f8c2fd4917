package containment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"keyedeq/internal/chase"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Homomorphism witnesses a containment q1 ⊑ q2: a mapping from q2's body
// variables to terms of q1 (variables or constants) that carries every
// atom of q2 onto an atom of q1 (modulo q1's equality classes) and q2's
// head onto q1's head.  This is the Chandra–Merlin certificate.
type Homomorphism map[cq.Var]cq.Term

// String renders "{A -> X, B -> T1:3}" deterministically.
func (h Homomorphism) String() string {
	keys := make([]string, 0, len(h))
	for v := range h {
		keys = append(keys, string(v))
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + " -> " + h[cq.Var(k)].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FindHomomorphism decides q1 ⊑ q2 and, when it holds, returns the
// explicit homomorphism from q2 into q1.  With deps it first chases q1's
// canonical database; a vacuous containment (failing chase) returns
// ok=true with a nil homomorphism.  The witness comes from the adaptive
// search.
func FindHomomorphism(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (Homomorphism, bool, error) {
	return findHomomorphism(q1, q2, s, deps, false)
}

// FindHomomorphismMode is FindHomomorphism with an explicit homomorphism
// search mode; the differential wall verifies both modes' witnesses.
func FindHomomorphismMode(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD, mode cq.SearchMode) (Homomorphism, bool, error) {
	return findHomomorphism(q1, q2, s, deps, mode == cq.SearchNaive)
}

// findHomomorphism is FindHomomorphism by the naive oracle or the
// adaptive search.
func findHomomorphism(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD, naive bool) (Homomorphism, bool, error) {
	if err := CheckComparable(q1, q2, s); err != nil {
		return nil, false, err
	}
	comp := cq.Compile(q1)
	defer comp.Release()
	c, terms, vals := buildCanonicalDB(q1, comp, s, func(tb *chase.Tableau) (chase.Stats, error) {
		return keyChase(context.Background(), tb, deps)
	})
	ok, binding, _, err := c.search(context.Background(), q2, naive, true)
	if err != nil || !ok || c.failed {
		return nil, ok, err
	}
	// Translate the value binding back to q1 terms through the per-term
	// values: each frozen value, a labeled null or a class's constant,
	// maps to a representative q1 variable of its chased class; a value
	// no body placeholder carries maps to itself.
	valToVar := make(map[value.Value]cq.Var)
	for i, a := range q1.Body {
		for p, v := range a.Vars {
			val := vals[terms[comp.Args[i][p]]]
			if _, seen := valToVar[val]; !seen {
				valToVar[val] = v
			}
		}
	}
	hom := make(Homomorphism, len(binding))
	for v2, val := range binding {
		if v1, ok := valToVar[val]; ok {
			hom[v2] = cq.Term{Var: v1}
		} else {
			hom[v2] = cq.C(val)
		}
	}
	return hom, true, nil
}

// VerifyHomomorphism checks the certificate symbolically: applying h to
// every body atom of q2 must land on an atom of q1 up to q1's equality
// classes (after chasing with deps, if given), and applying h to q2's
// head must equal q1's head (again up to q1's classes).
func VerifyHomomorphism(q1, q2 *cq.Query, h Homomorphism, s *schema.Schema, deps []fd.FD) error {
	// Recompute the chased equality structure of q1.
	tb := chase.NewTableau(s)
	vars, err := chase.Freeze(tb, q1)
	if err != nil {
		return err
	}
	if len(deps) > 0 {
		if _, err := tb.Run(deps); err != nil {
			return err
		}
	}
	if tb.Failed() {
		return nil // vacuous containment; any certificate passes
	}
	// sameTerm compares two q1 terms up to chased classes.
	sameTerm := func(a, b cq.Term) bool {
		switch {
		case !a.IsConst && !b.IsConst:
			return tb.Same(vars[a.Var], vars[b.Var])
		case a.IsConst && b.IsConst:
			return a.Const == b.Const
		case a.IsConst:
			c, ok := tb.ConstOf(vars[b.Var])
			return ok && c == a.Const
		default:
			c, ok := tb.ConstOf(vars[a.Var])
			return ok && c == b.Const
		}
	}
	// apply reads v's image, which must be a constant or a body
	// placeholder of q1: sameTerm reads any other name as term 0.
	apply := func(v cq.Var) (cq.Term, error) {
		t, ok := h[v]
		if !ok {
			return cq.Term{}, fmt.Errorf("containment: homomorphism misses variable %s", v)
		}
		if _, body := vars[t.Var]; !t.IsConst && !body {
			return cq.Term{}, fmt.Errorf("containment: homomorphism maps %s to %s, which is not a body variable of q1", v, t.Var)
		}
		return t, nil
	}
	// Body atoms.
	for _, a2 := range q2.Body {
		matched := false
		for _, a1 := range q1.Body {
			if a1.Rel != a2.Rel {
				continue
			}
			all := true
			for p := range a2.Vars {
				img, err := apply(a2.Vars[p])
				if err != nil {
					return err
				}
				if !sameTerm(img, cq.Term{Var: a1.Vars[p]}) {
					all = false
					break
				}
			}
			if all {
				matched = true
				break
			}
		}
		if !matched {
			return fmt.Errorf("containment: atom %s has no image in q1", a2)
		}
	}
	// Also respect q2's own equality list: equated variables must map to
	// equal terms, and constant bindings must be honored.  One pass over
	// the variables suffices: within a class, equality of images is
	// transitive, so comparing each member against the class's first seen
	// member checks every pair.
	eq2 := cq.NewEqClasses(q2)
	firstOf := make(map[cq.Var]cq.Var)
	firstImg := make(map[cq.Var]cq.Term)
	for _, v := range q2.BodyVars() {
		iv, err := apply(v)
		if err != nil {
			return err
		}
		root := eq2.Find(v)
		if w, seen := firstOf[root]; seen {
			if !sameTerm(firstImg[root], iv) {
				return fmt.Errorf("containment: equality %s = %s not preserved", w, v)
			}
		} else {
			firstOf[root] = v
			firstImg[root] = iv
		}
		if c, ok := eq2.Const(v); ok {
			if !sameTerm(iv, cq.C(c)) {
				return fmt.Errorf("containment: selection %s = %s not preserved", v, c)
			}
		}
	}
	// Head.
	if len(q1.Head) != len(q2.Head) {
		return fmt.Errorf("containment: head arity mismatch")
	}
	for i := range q2.Head {
		if _, body := vars[q1.Head[i].Var]; !q1.Head[i].IsConst && !body {
			return fmt.Errorf("containment: head variable %s of q1 is not a body variable", q1.Head[i].Var)
		}
		var img cq.Term
		if q2.Head[i].IsConst {
			img = q2.Head[i]
		} else {
			t, err := apply(q2.Head[i].Var)
			if err != nil {
				return err
			}
			img = t
		}
		if !sameTerm(img, q1.Head[i]) {
			return fmt.Errorf("containment: head position %d maps to %s, want %s", i, img, q1.Head[i])
		}
	}
	return nil
}
