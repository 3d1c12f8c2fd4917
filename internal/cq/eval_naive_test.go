package cq

import (
	"keyedeq/internal/instance"
	"keyedeq/internal/value"
)

// naiveEval evaluates q over d with evalNaive, the oracle the planned
// pipeline of Eval is checked against.
func naiveEval(q *Query, d *instance.Database) (*instance.Relation, error) {
	scheme, err := answerScheme(q, d.Schema)
	if err != nil {
		return nil, err
	}
	out := instance.NewRelation(scheme)
	_, err = evalNaive(q, d, out)
	return out, err
}

// evalNaive is the reference evaluation: a backtracking join matching
// atoms against full relation scans, picking the next atom dynamically
// by bound-position count.
func evalNaive(q *Query, d *instance.Database, out *instance.Relation) (EvalStats, error) {
	var stats EvalStats
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		return stats, nil
	}
	relIdxs, err := resolveRelations(q, d.Schema)
	if err != nil {
		return stats, err
	}
	// Binding environment: class representative -> value.
	binding := make(map[Var]value.Value)
	// Pre-bind constants from the equality list.
	for _, a := range q.Body {
		for _, v := range a.Vars {
			if c, ok := eq.Const(v); ok {
				binding[eq.Find(v)] = c
			}
		}
	}

	used := make([]bool, len(q.Body))
	var emit func()
	emit = func() {
		t := make(instance.Tuple, len(q.Head))
		for i, term := range q.Head {
			if term.IsConst {
				t[i] = term.Const
				continue
			}
			t[i] = binding[eq.Find(term.Var)]
		}
		// Scheme-checked insert guards against internal type errors.
		out.MustInsert(t)
	}

	// pickNext chooses the unused atom with the most already-bound
	// positions (a greedy join order that keeps chains and stars cheap),
	// breaking ties by original order.
	pickNext := func() int {
		best, bestBound := -1, -1
		for i, a := range q.Body {
			if used[i] {
				continue
			}
			bound := 0
			for _, v := range a.Vars {
				if _, ok := binding[eq.Find(v)]; ok {
					bound++
				}
			}
			if bound > bestBound {
				best, bestBound = i, bound
			}
		}
		return best
	}

	var recurse func(remaining int)
	recurse = func(remaining int) {
		if remaining == 0 {
			emit()
			return
		}
		ai := pickNext()
		a := q.Body[ai]
		used[ai] = true
		defer func() { used[ai] = false }()
		for _, t := range d.Relations[relIdxs[ai]].Tuples() {
			stats.Nodes++
			// Check consistency and collect new bindings.
			var added []Var
			ok := true
			for p, v := range a.Vars {
				root := eq.Find(v)
				if bv, bound := binding[root]; bound {
					if bv != t[p] {
						ok = false
						break
					}
					continue
				}
				binding[root] = t[p]
				added = append(added, root)
			}
			if ok {
				recurse(remaining - 1)
			}
			for _, r := range added {
				delete(binding, r)
			}
		}
	}
	recurse(len(q.Body))
	return stats, nil
}
