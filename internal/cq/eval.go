package cq

import (
	"context"
	"fmt"
	"strconv"

	"keyedeq/internal/instance"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// EvalStats reports work done by an evaluation: Nodes counts assignments
// attempted in the backtracking join (the homomorphism search tree size).
type EvalStats struct {
	Nodes int64
	// CompNodes breaks Nodes down by join-graph connected component on
	// the pipeline (nil for the naive search and the adaptive search's
	// scan arm).  Components
	// the search never reached — a miss or cancellation in an earlier
	// component ends the search — contribute no entry, so the recorded
	// entries always sum to Nodes.
	CompNodes []int64
}

// cancelCheckMask bounds how often the backtracking search polls its
// context: once every cancelCheckMask+1 nodes, so cancellation support
// costs nothing measurable on the hot path.
const cancelCheckMask = 0x3ff

// Eval evaluates q over database d, returning the answer as a relation
// instance with a synthesized scheme (named by q.HeadRel, attributes
// c0..cn-1, no key).  Evaluation runs the planned, indexed join of
// plan.go through the streamed pipeline (iter.go).
func Eval(q *Query, d *instance.Database) (*instance.Relation, error) {
	rel, _, err := EvalWithStats(q, d)
	return rel, err
}

// EvalInto evaluates q and labels the result with the provided scheme,
// which must have q's head type.
func EvalInto(q *Query, d *instance.Database, scheme *schema.Relation) (*instance.Relation, error) {
	ht, err := q.HeadType(d.Schema)
	if err != nil {
		return nil, err
	}
	if len(ht) != scheme.Arity() {
		return nil, fmt.Errorf("cq: head arity %d, scheme %q wants %d", len(ht), scheme.Name, scheme.Arity())
	}
	for i, t := range ht {
		if scheme.Attrs[i].Type != t {
			return nil, fmt.Errorf("cq: head position %d has type %v, scheme %q wants %v", i, t, scheme.Name, scheme.Attrs[i].Type)
		}
	}
	rel, _, err := evalCore(q, d, scheme)
	return rel, err
}

// EvalWithStats is Eval returning search statistics.
func EvalWithStats(q *Query, d *instance.Database) (*instance.Relation, EvalStats, error) {
	scheme, err := answerScheme(q, d.Schema)
	if err != nil {
		return nil, EvalStats{}, err
	}
	return evalCore(q, d, scheme)
}

// answerScheme synthesizes the scheme of q's answer over s: named by
// q.HeadRel ("Q" when empty), attributes c0..cn-1 of q's head types.
func answerScheme(q *Query, s *schema.Schema) (*schema.Relation, error) {
	ht, err := q.HeadType(s)
	if err != nil {
		return nil, err
	}
	name := q.HeadRel
	if name == "" {
		name = "Q"
	}
	scheme := &schema.Relation{Name: name}
	for i, t := range ht {
		scheme.Attrs = append(scheme.Attrs, schema.Attribute{Name: fmt.Sprintf("c%d", i), Type: t})
	}
	return scheme, nil
}

func evalCore(q *Query, d *instance.Database, scheme *schema.Relation) (*instance.Relation, EvalStats, error) {
	out := instance.NewRelation(scheme)
	if len(q.Body) == 0 {
		return out, EvalStats{}, fmt.Errorf("cq: empty body")
	}
	stats, err := evalPipeline(context.Background(), q, d, out)
	return out, stats, err
}

// FindAnswerBindingFrozen reports whether evaluating q over the frozen
// view fz produces the tuple want and, when it does, returns the
// witnessing binding (every body variable of q mapped to a database
// value).  Unlike Eval it stops as soon as the tuple is derived: the
// homomorphism test at the heart of containment checking, run by the
// adaptive search.  Containment uses it to extract explicit
// homomorphisms; the returned stats count search nodes visited.
func FindAnswerBindingFrozen(ctx context.Context, q *Query, fz *instance.Frozen, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	return searchObserved(ctx, q, nil, fz, want, SearchAdaptive, true)
}

// HasAnswerFrozen is FindAnswerBindingFrozen without the witness: the
// decision path's entry, which decodes nothing.
func HasAnswerFrozen(ctx context.Context, q *Query, fz *instance.Frozen, want instance.Tuple) (bool, EvalStats, error) {
	ok, _, es, err := searchObserved(ctx, q, nil, fz, want, SearchAdaptive, false)
	return ok, es, err
}

// FindAnswerBindingNaive is FindAnswerBindingFrozen over the value
// database d by the naive search (SearchNaive): the oracle the adaptive
// search is checked and benchmarked against.
func FindAnswerBindingNaive(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	return searchObserved(ctx, q, d, nil, want, SearchNaive, true)
}

// searchObserved is the obs reporting funnel for the homomorphism
// search behind every entry point: every invocation bumps the search
// counters and, with a sink installed, emits one search span — on
// success, cancellation, and validation failure alike — so exported
// totals reconcile exactly with the EvalStats callers accumulate.  The
// naive oracle reads the value database d, the adaptive search fz.
func searchObserved(ctx context.Context, q *Query, d *instance.Database, fz *instance.Frozen, want instance.Tuple, mode SearchMode, witness bool) (bool, map[Var]value.Value, EvalStats, error) {
	o := obs.FromContext(ctx)
	start := o.Time()
	ok, w, es, err := findAnswer(ctx, q, d, fz, want, mode, witness)
	if o != nil {
		o.C(obs.CSearches).Inc()
		o.C(obs.CSearchNodes).Add(es.Nodes)
		o.H(obs.HSearchNodes).Observe(es.Nodes)
		if o.SpansOn() {
			attrs := make([]obs.Attr, 0, 3+len(es.CompNodes))
			attrs = append(attrs,
				obs.S("mode", mode.String()),
				obs.I("nodes", es.Nodes),
				obs.B("found", ok))
			for i, n := range es.CompNodes {
				attrs = append(attrs, obs.I("comp_nodes_"+strconv.Itoa(i), n))
			}
			o.EmitSpan(ctx, obs.StageSearch, start, err, attrs...)
		}
	}
	return ok, w, es, err
}

// findAnswer dispatches to the selected search implementation after the
// shared validation.
func findAnswer(ctx context.Context, q *Query, d *instance.Database, fz *instance.Frozen, want instance.Tuple, mode SearchMode, witness bool) (bool, map[Var]value.Value, EvalStats, error) {
	if len(q.Head) != len(want) {
		return false, nil, EvalStats{}, fmt.Errorf("cq: want arity %d, head arity %d", len(want), len(q.Head))
	}
	if len(q.Body) == 0 {
		return false, nil, EvalStats{}, fmt.Errorf("cq: empty body")
	}
	if mode == SearchNaive {
		return findAnswerNaive(ctx, q, d, want)
	}
	return searchIDs(ctx, q, fz, want, witness, allSmall(q, fz))
}

// findAnswerNaive is the reference homomorphism search: dynamic
// most-bound-first atom picking over full relation scans.
func findAnswerNaive(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	var stats EvalStats
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		return false, nil, stats, nil
	}
	relIdxs, err := resolveRelations(q, d.Schema)
	if err != nil {
		return false, nil, stats, err
	}
	binding := make(map[Var]value.Value)
	for _, a := range q.Body {
		for _, v := range a.Vars {
			if c, ok := eq.Const(v); ok {
				binding[eq.Find(v)] = c
			}
		}
	}
	// Pre-bind head variables to the wanted values; constants must match.
	for i, term := range q.Head {
		if term.IsConst {
			if term.Const != want[i] {
				return false, nil, stats, nil
			}
			continue
		}
		root := eq.Find(term.Var)
		if bv, ok := binding[root]; ok {
			if bv != want[i] {
				return false, nil, stats, nil
			}
			continue
		}
		binding[root] = want[i]
	}
	used := make([]bool, len(q.Body))
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
	var found bool
	var canceled error
	var witness map[Var]value.Value
	var recurse func(remaining int)
	recurse = func(remaining int) {
		if found || canceled != nil {
			return
		}
		if remaining == 0 {
			found = true
			// Capture the successful binding, resolved per body
			// variable through its class representative.
			witness = make(map[Var]value.Value)
			for _, a := range q.Body {
				for _, v := range a.Vars {
					witness[v] = binding[eq.Find(v)]
				}
			}
			return
		}
		ai := pickNext()
		a := q.Body[ai]
		used[ai] = true
		defer func() { used[ai] = false }()
		for _, t := range d.Relations[relIdxs[ai]].Tuples() {
			if found || canceled != nil {
				return
			}
			stats.Nodes++
			if stats.Nodes&cancelCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					canceled = err
					return
				}
			}
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
	if canceled != nil {
		return false, nil, stats, canceled
	}
	return found, witness, stats, nil
}
