// Package containment decides conjunctive query containment and
// equivalence — the Chandra–Merlin homomorphism test — both over all
// instances and over instances satisfying key/functional dependencies
// (via the chase), plus query minimization (core computation).
//
// q ⊑ q' (q contained in q') means q(d) ⊆ q'(d) for every database d; the
// paper's query equivalence is mutual containment.  The classical test:
// freeze q into its canonical database, evaluate q' over it, and look for
// q's frozen head among the answers.  Under dependencies, chase the
// canonical database first; a failing chase means q returns no answers on
// any dependency-satisfying database, so containment holds vacuously.
//
// Every check reports a Stats value accounting for the work performed.
// Stats values are combined only through Stats.Merge — numeric fields
// add, boolean fields OR — never by hand-picking fields; a reflection
// test asserts Merge covers every field, so adding a counter without
// extending Merge fails the suite.  On error (cancellation, timeout)
// the returned Stats still carries the partial work done, so callers
// summing Stats reconcile exactly with the obs metrics exported from
// the chase and search layers.
package containment

import (
	"context"
	"errors"
	"fmt"

	"keyedeq/internal/chase"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Stats describes the work a containment check did.
type Stats struct {
	// Nodes is the homomorphism search tree size.
	Nodes int64
	// Searches counts homomorphism search invocations (one per
	// containment direction that reaches the search, so ≤2 for an
	// equivalence check).
	Searches int
	// ChaseIterations counts chase passes (zero without dependencies).
	ChaseIterations int
	// ChaseMerges counts equality-class unions the chase performed.
	ChaseMerges int
	// ChaseRevisited counts tuples the semi-naive chase re-examined.
	ChaseRevisited int
	// ChaseFailed records that the chase detected unsatisfiability.
	ChaseFailed bool
}

// Merge folds other into s: numeric fields add, boolean fields OR.
// All Stats combination goes through Merge; a reflection test asserts
// it covers every field of Stats, so a counter added to the struct but
// not to Merge is caught by the suite instead of being silently
// dropped at merge points.
func (s *Stats) Merge(other Stats) {
	s.Nodes += other.Nodes
	s.Searches += other.Searches
	s.ChaseIterations += other.ChaseIterations
	s.ChaseMerges += other.ChaseMerges
	s.ChaseRevisited += other.ChaseRevisited
	s.ChaseFailed = s.ChaseFailed || other.ChaseFailed
}

// SearchStats returns the Stats of one completed homomorphism search
// invocation that visited nodes search-tree nodes.  Callers outside
// this package build Stats only through these constructors (or Merge);
// the mergeonly lint rule enforces it.
func SearchStats(nodes int64) Stats {
	return Stats{Nodes: nodes, Searches: 1}
}

// ChaseStats converts one chase run's counters into Stats, ready to be
// merged into a pair's books.
func ChaseStats(cs chase.Stats) Stats {
	return Stats{
		ChaseIterations: cs.Iterations,
		ChaseMerges:     cs.Merges,
		ChaseRevisited:  cs.Revisited,
	}
}

// FailedChaseStats returns the Stats of a containment decided vacuously
// because the chase proved the left query empty under the dependencies.
func FailedChaseStats() Stats {
	return Stats{ChaseFailed: true}
}

// StoredStats rebuilds the Stats a verdict log recorded field by field,
// one argument per field in declaration order.
func StoredStats(nodes int64, searches, chaseIterations, chaseMerges, chaseRevisited int, chaseFailed bool) Stats {
	return Stats{
		Nodes:           nodes,
		Searches:        searches,
		ChaseIterations: chaseIterations,
		ChaseMerges:     chaseMerges,
		ChaseRevisited:  chaseRevisited,
		ChaseFailed:     chaseFailed,
	}
}

// Contained reports whether q1 ⊑ q2 over all instances of s.
func Contained(q1, q2 *cq.Query, s *schema.Schema) (bool, error) {
	ok, _, err := ContainedUnder(q1, q2, s, nil)
	return ok, err
}

// ContainedUnder reports whether q1 ⊑ q2 over all instances of s
// satisfying deps (single-relation EGDs, e.g. fd.KeyFDs(s)).
func ContainedUnder(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, Stats, error) {
	return containedUnder(context.Background(), q1, q2, s, deps, false)
}

// ContainedUnderMode is ContainedUnder with an explicit homomorphism
// search mode; the naive mode drives the differential tests and the
// adaptive-vs-naive benchmark record.
func ContainedUnderMode(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD, mode cq.SearchMode) (bool, Stats, error) {
	return containedUnder(context.Background(), q1, q2, s, deps, mode == cq.SearchNaive)
}

// containedUnder is ContainedUnder under ctx, by the naive oracle or the
// adaptive search.
func containedUnder(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD, naive bool) (bool, Stats, error) {
	if err := CheckComparable(q1, q2, s); err != nil {
		return false, Stats{}, err
	}
	return NewCanonicalDB(ctx, q1, s, deps).decide(ctx, q2, naive)
}

// Equivalent reports whether q1 ≡ q2 over all instances of s.
func Equivalent(q1, q2 *cq.Query, s *schema.Schema) (bool, error) {
	ok, _, err := EquivalentUnder(q1, q2, s, nil)
	return ok, err
}

// EquivalentUnder reports mutual containment under deps.
func EquivalentUnder(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, Stats, error) {
	return EquivalentUnderCtx(context.Background(), q1, q2, s, deps)
}

// EquivalentUnderCtx is EquivalentUnder with cancellation: the chases
// and searches poll ctx and abort with its error when it is done.
func EquivalentUnderCtx(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, Stats, error) {
	return equivalentUnder(ctx, q1, q2, s, deps, false)
}

// EquivalentUnderMode is EquivalentUnder with an explicit homomorphism
// search mode; the naive mode drives differential tests and benchmarks.
func EquivalentUnderMode(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD, mode cq.SearchMode) (bool, Stats, error) {
	return equivalentUnder(context.Background(), q1, q2, s, deps, mode == cq.SearchNaive)
}

// equivalentUnder is EquivalentUnderCtx by the naive oracle or the
// adaptive search.  The two directions share one validation.
func equivalentUnder(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD, naive bool) (bool, Stats, error) {
	if err := CheckComparable(q1, q2, s); err != nil {
		return false, Stats{}, err
	}
	ok, st, err := NewCanonicalDB(ctx, q1, s, deps).decide(ctx, q2, naive)
	if err != nil || !ok {
		return false, st, err
	}
	ok, st2, err := NewCanonicalDB(ctx, q2, s, deps).decide(ctx, q1, naive)
	st.Merge(st2)
	return ok, st, err
}

// ErrNilQuery is wrapped by the error CheckComparable (and so every
// containment check) returns when handed a nil query.
var ErrNilQuery = errors.New("nil query")

// CheckComparable validates both queries against s and requires equal
// head types — the precondition every containment test shares.  A nil
// query is an error wrapping ErrNilQuery, never a panic.  Each query is
// compiled once and both checks read the compiled form, with the
// errors of Validate and HeadType.  The batch engine, which meets one
// query in many pairs, checks each query once and CheckHeadTypes per
// pair, and calls CheckComparable only to build a failing pair's error.
func CheckComparable(q1, q2 *cq.Query, s *schema.Schema) error {
	if q1 == nil {
		return fmt.Errorf("containment: left query: %w", ErrNilQuery)
	}
	if q2 == nil {
		return fmt.Errorf("containment: right query: %w", ErrNilQuery)
	}
	c1, c2 := cq.Compile(q1), cq.Compile(q2)
	defer c1.Release()
	defer c2.Release()
	if err := c1.Check(q1, s); err != nil {
		return fmt.Errorf("containment: left query: %v", err)
	}
	if err := c2.Check(q2, s); err != nil {
		return fmt.Errorf("containment: right query: %v", err)
	}
	t1, err := c1.HeadType(q1)
	if err != nil {
		return err
	}
	t2, err := c2.HeadType(q2)
	if err != nil {
		return err
	}
	return CheckHeadTypes(t1, t2)
}

// CheckHeadTypes requires t1, the left query's head type, to equal t2,
// the right one's: CheckComparable's test of the pair once each query
// has passed on its own.
func CheckHeadTypes(t1, t2 []value.Type) error {
	if len(t1) != len(t2) {
		return fmt.Errorf("containment: arity %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			return fmt.Errorf("containment: head position %d has type %v vs %v", i, t1[i], t2[i])
		}
	}
	return nil
}

// Minimize computes a core of q over s: an equivalent query with a
// minimal set of body atoms, obtained by repeatedly deleting atoms whose
// deletion preserves equivalence.  Deps, when non-nil, minimizes under the
// dependencies instead.
func Minimize(q *cq.Query, s *schema.Schema, deps []fd.FD) (*cq.Query, error) {
	if err := q.Validate(s); err != nil {
		return nil, err
	}
	cur := q.Clone()
	if len(deps) > 0 {
		// Make dependency-forced equalities explicit first, so that
		// atom removal can remap head variables through them.
		chased, unsat, err := chase.ChaseQuery(s, deps, q)
		if err != nil {
			return nil, err
		}
		if !unsat {
			cur = chased
		}
	}
	for {
		removed := false
		for i := 0; i < len(cur.Body); i++ {
			if len(cur.Body) == 1 {
				break
			}
			cand, ok := removeAtom(cur, i)
			if !ok {
				continue
			}
			if err := cand.Validate(s); err != nil {
				continue
			}
			eq, _, err := EquivalentUnder(cand, cur, s, deps)
			if err != nil {
				return nil, err
			}
			if eq {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			return cur, nil
		}
	}
}

// removeAtom builds q without body atom i, remapping head variables and
// equalities so the equality classes restricted to the remaining
// variables are preserved.  It reports ok=false when a head variable's
// class has no remaining member (the atom is not removable).
func removeAtom(q *cq.Query, i int) (*cq.Query, bool) {
	eq := cq.NewEqClasses(q)
	remaining := make(map[cq.Var]bool)
	out := &cq.Query{HeadRel: q.HeadRel}
	for j, a := range q.Body {
		if j == i {
			continue
		}
		out.Body = append(out.Body, cq.Atom{Rel: a.Rel, Vars: append([]cq.Var(nil), a.Vars...)})
		for _, v := range a.Vars {
			remaining[v] = true
		}
	}
	// Group remaining variables by class; roots lists the classes in
	// first-appearance order, so the equalities print the same every run.
	classes := make(map[cq.Var][]cq.Var)
	var roots []cq.Var
	for _, a := range q.Body {
		for _, v := range a.Vars {
			if remaining[v] {
				root := eq.Find(v)
				if classes[root] == nil {
					roots = append(roots, root)
				}
				classes[root] = append(classes[root], v)
			}
		}
	}
	// Head terms: map each variable to a remaining member of its class.
	for _, t := range q.Head {
		if t.IsConst {
			out.Head = append(out.Head, t)
			continue
		}
		members := classes[eq.Find(t.Var)]
		if len(members) == 0 {
			return nil, false
		}
		out.Head = append(out.Head, cq.Term{Var: members[0]})
	}
	// Equalities: chain the remaining members of each class, and re-bind
	// class constants.
	for _, root := range roots {
		members := classes[root]
		for k := 1; k < len(members); k++ {
			out.Eqs = append(out.Eqs, cq.Equality{Left: members[0], Right: cq.Term{Var: members[k]}})
		}
		if c, ok := eq.Const(root); ok {
			out.Eqs = append(out.Eqs, cq.Equality{Left: members[0], Right: cq.C(c)})
		}
	}
	return out, true
}
