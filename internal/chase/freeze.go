package chase

import (
	"fmt"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
)

// FreezeCompiled loads q's body into the tableau through q's compiled
// form c: one term per body class (a class bound to a constant becomes
// that constant's term), one row per body atom.  It returns the term of
// each body class, terms[k] for class k < c.BodyClasses.  A query whose
// equality list equates distinct constants marks the tableau failed.
func FreezeCompiled(t *Tableau, q *cq.Query, c *cq.Compiled) ([]Term, error) {
	if c.Unsat {
		t.failed = true
	}
	terms := make([]Term, c.BodyClasses)
	for k := range terms {
		terms[k] = -1
	}
	var cells []Term
	for i, a := range q.Body {
		ri := t.Schema.RelationIndex(a.Rel)
		if ri < 0 {
			return nil, fmt.Errorf("chase: query uses unknown relation %q", a.Rel)
		}
		r := t.Schema.Relations[ri]
		if len(a.Vars) != r.Arity() {
			return nil, fmt.Errorf("chase: %s has %d placeholders, scheme wants %d", a.Rel, len(a.Vars), r.Arity())
		}
		cells = cells[:0]
		for p, k := range c.Args[i] {
			if terms[k] < 0 {
				if c.HasConst[k] {
					terms[k] = t.NewConst(c.Const[k])
				} else {
					terms[k] = t.NewNull(r.Attrs[p].Type)
				}
			}
			cells = append(cells, terms[k])
		}
		if err := t.AddRow(a.Rel, cells); err != nil {
			return nil, err
		}
	}
	return terms, nil
}

// Freeze is FreezeCompiled seen by variable name: it returns the term
// of every body placeholder of q.
func Freeze(t *Tableau, q *cq.Query) (map[cq.Var]Term, error) {
	c := cq.Compile(q)
	defer c.Release()
	terms, err := FreezeCompiled(t, q, c)
	if err != nil {
		return nil, err
	}
	vars := make(map[cq.Var]Term, c.Slots())
	for i, a := range q.Body {
		for p, v := range a.Vars {
			vars[v] = terms[c.Args[i][p]]
		}
	}
	return vars, nil
}

// HeadTerms resolves q's head through the variable terms returned by
// Freeze (constants become constant terms).
func HeadTerms(t *Tableau, q *cq.Query, vars map[cq.Var]Term) ([]Term, error) {
	out := make([]Term, len(q.Head))
	for i, h := range q.Head {
		if h.IsConst {
			out[i] = t.NewConst(h.Const)
			continue
		}
		tm, ok := vars[h.Var]
		if !ok {
			return nil, fmt.Errorf("chase: head variable %s not frozen", h.Var)
		}
		out[i] = tm
	}
	return out, nil
}

// ChaseQuery applies the dependencies to the query itself: it freezes q's
// body, chases it, and returns q extended with the equalities (and
// constant bindings) the chase derived.  The result is equivalent to q on
// every deps-satisfying instance and is the right starting point for
// minimization under dependencies.  unsat reports that the chase failed —
// q is empty on every deps-satisfying instance.
func ChaseQuery(s *schema.Schema, deps []fd.FD, q *cq.Query) (out *cq.Query, unsat bool, err error) {
	t := NewTableau(s)
	vars, err := Freeze(t, q)
	if err != nil {
		return nil, false, err
	}
	if _, err := t.Run(deps); err != nil {
		return nil, false, err
	}
	if t.Failed() {
		return q.Clone(), true, nil
	}
	out = q.Clone()
	// Group body variables by their chased term class; emit equalities
	// chaining each class, plus the constant if the class is bound.
	classFirst := make(map[int]cq.Var)
	eq := cq.NewEqClasses(q)
	for _, v := range q.BodyVars() {
		rep := t.find(int(vars[v]))
		first, ok := classFirst[rep]
		if !ok {
			classFirst[rep] = v
			if c, bound := t.ConstOf(vars[v]); bound {
				if _, already := eq.Const(v); !already {
					out.Eqs = append(out.Eqs, cq.Equality{Left: v, Right: cq.C(c)})
				}
			}
			continue
		}
		if !eq.Same(first, v) {
			out.Eqs = append(out.Eqs, cq.Equality{Left: first, Right: cq.Term{Var: v}})
		}
	}
	return out, false, nil
}

// ViewFDHolds decides whether the functional dependency X → Y (given as
// head positions of q) holds on q(d) for *every* database instance d of s
// satisfying deps.  This is the two-copy chase test, sound and complete
// for conjunctive queries under EGDs:
//
//  1. freeze two disjoint copies of q's body;
//  2. equate the head-X terms of the copies;
//  3. chase with deps;
//  4. the FD holds iff the chase fails (no counterexample database exists)
//     or every head-Y pair has been equated.
func ViewFDHolds(s *schema.Schema, deps []fd.FD, q *cq.Query, x, y []int) (bool, error) {
	for _, p := range append(append([]int{}, x...), y...) {
		if p < 0 || p >= len(q.Head) {
			return false, fmt.Errorf("chase: head position %d out of range", p)
		}
	}
	t := NewTableau(s)
	q1 := q.Rename("l_")
	q2 := q.Rename("r_")
	v1, err := Freeze(t, q1)
	if err != nil {
		return false, err
	}
	v2, err := Freeze(t, q2)
	if err != nil {
		return false, err
	}
	h1, err := HeadTerms(t, q1, v1)
	if err != nil {
		return false, err
	}
	h2, err := HeadTerms(t, q2, v2)
	if err != nil {
		return false, err
	}
	for _, p := range x {
		if err := t.Assert(h1[p], h2[p]); err != nil {
			return false, err
		}
	}
	if _, err := t.Run(deps); err != nil {
		return false, err
	}
	if t.Failed() {
		// The hypothetical pair of answer tuples agreeing on X cannot
		// exist over any instance satisfying deps; the FD holds
		// vacuously.
		return true, nil
	}
	for _, p := range y {
		c1, ok1 := t.ConstOf(h1[p])
		c2, ok2 := t.ConstOf(h2[p])
		if ok1 && ok2 && c1 == c2 {
			continue
		}
		if !t.Same(h1[p], h2[p]) {
			return false, nil
		}
	}
	return true, nil
}

// ViewKeyHolds reports whether the key positions keyPos functionally
// determine the whole head of q on every deps-satisfying instance — i.e.
// whether q's answers always satisfy a key dependency on keyPos.
func ViewKeyHolds(s *schema.Schema, deps []fd.FD, q *cq.Query, keyPos []int) (bool, error) {
	all := make([]int, len(q.Head))
	for i := range all {
		all[i] = i
	}
	return ViewFDHolds(s, deps, q, keyPos, all)
}
