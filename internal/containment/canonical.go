package containment

import (
	"context"
	"fmt"

	"keyedeq/internal/chase"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/instance"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// CanonicalDB is the left half of the containment test q ⊑ q2: q frozen
// into its canonical database, chased with the dependencies, plus q's
// frozen head.  q ⊑ q2 holds iff q2 returns the frozen head on this
// database, or the chase failed (q is then empty on every database
// satisfying the dependencies).  The database is held only as the
// interned view the chase emits, which the adaptive search reads; the
// naive oracle reads its decode.  One CanonicalDB answers any number of
// right-hand queries; the engine builds one per distinct query of a
// batch and searches it from several workers at once, which is safe
// because nothing mutates it after the build.
type CanonicalDB struct {
	fz     *instance.Frozen
	head   instance.Tuple
	failed bool
	chase  chase.Stats
	err    error
}

// NewCanonicalDB freezes q into its canonical database over s, chases it
// with deps under ctx, and interns the result.  The labeled nulls
// standing for q's unbound variables equal no constant, so the result
// depends on q alone and serves any right-hand query.  With deps, the
// chase is timed as a freeze_chase span.
//
// The build keeps its error rather than returning it: a chase cut short
// by ctx still reports its work through ChaseStats, and ContainedIn
// returns the error.
//
//keyedeq:hot -- freeze-chase-intern is the left half of every verdict the engine computes
func NewCanonicalDB(ctx context.Context, q *cq.Query, s *schema.Schema, deps []fd.FD) *CanonicalDB {
	comp := cq.Compile(q)
	defer comp.Release()
	c, _, _ := buildCanonicalDB(q, comp, s, func(tb *chase.Tableau) (chase.Stats, error) {
		return keyChase(ctx, tb, deps)
	})
	return c
}

// buildCanonicalDB is the one freeze → chase → intern sequence over q's
// compiled form comp; run is the chase step.  Beside the result it
// returns the term of each body class and each term's value (nil when
// the build stopped early), which only FindHomomorphism reads, to map a
// witness back to q's variables.
func buildCanonicalDB(q *cq.Query, comp *cq.Compiled, s *schema.Schema, run func(*chase.Tableau) (chase.Stats, error)) (*CanonicalDB, []chase.Term, []value.Value) {
	c := &CanonicalDB{}
	tb := chase.NewTableau(s)
	terms, err := chase.FreezeCompiled(tb, q, comp)
	if err != nil {
		c.err = err
		return c, nil, nil
	}
	head := make([]chase.Term, len(q.Head))
	for i, k := range comp.Head {
		switch {
		case k < 0:
			head[i] = tb.NewConst(q.Head[i].Const)
		case int(k) < comp.BodyClasses:
			head[i] = terms[k]
		default:
			c.err = fmt.Errorf("containment: head variable %s occurs in no atom", q.Head[i].Var)
			return c, nil, nil
		}
	}
	c.chase, c.err = run(tb)
	// Freezing alone can fail the tableau (query equalities forcing
	// distinct constants), so read the flag after the chase step even
	// when there was nothing to chase.
	c.failed = tb.Failed()
	if c.err != nil || c.failed {
		return c, nil, nil
	}
	fz, vals, err := tb.Frozen()
	if err != nil {
		c.err = err
		return c, nil, nil
	}
	c.fz = fz
	c.head = make(instance.Tuple, len(head))
	for i, h := range head {
		c.head[i] = vals[h]
	}
	return c, terms, vals
}

// keyChase is NewCanonicalDB's chase step: the EGDs deps run over tb
// under ctx, timed as one freeze_chase span.  With no deps nothing runs
// and no span is emitted.
func keyChase(ctx context.Context, tb *chase.Tableau, deps []fd.FD) (chase.Stats, error) {
	if len(deps) == 0 {
		return chase.Stats{}, nil
	}
	o := obs.FromContext(ctx)
	start := o.Time()
	cs, err := tb.RunCtx(ctx, deps)
	if o.SpansOn() {
		o.EmitSpan(ctx, obs.StageFreezeChase, start, err,
			obs.I("iterations", int64(cs.Iterations)),
			obs.I("merges", int64(cs.Merges)),
			obs.I("revisited", int64(cs.Revisited)),
			obs.B("failed", tb.Failed()))
	}
	return cs, err
}

// Err returns the error that stopped the build, if any.
func (c *CanonicalDB) Err() error { return c.err }

// Database decodes the chased canonical database afresh and returns it
// with the frozen head; both are nil when the chase failed or the build
// stopped early.
func (c *CanonicalDB) Database() (*instance.Database, instance.Tuple) {
	if c.fz == nil {
		return nil, nil
	}
	return c.fz.Database(), c.head
}

// ChaseStats returns the chase's work, ChaseFailed included, as Stats.
// It is recorded even when the build stopped early, so summed Stats
// reconcile with the counters the chase exported before it stopped.
func (c *CanonicalDB) ChaseStats() Stats {
	st := ChaseStats(c.chase)
	st.ChaseFailed = c.failed
	return st
}

// ContainedIn decides q ⊑ q2 by the adaptive search of q2 for the
// frozen head, and returns the search's Stats.  A failed chase makes the
// containment hold vacuously with no search; a build error is returned
// as is.
func (c *CanonicalDB) ContainedIn(ctx context.Context, q2 *cq.Query) (bool, Stats, error) {
	ok, _, st, err := c.search(ctx, q2, false, false)
	return ok, st, err
}

// search is ContainedIn by the naive oracle over the decode or by the
// adaptive search, which decodes a witness only when asked.
func (c *CanonicalDB) search(ctx context.Context, q2 *cq.Query, naive, witness bool) (bool, map[cq.Var]value.Value, Stats, error) {
	switch {
	case c.err != nil:
		return false, nil, Stats{}, c.err
	case c.failed:
		return true, nil, FailedChaseStats(), nil
	case naive:
		db, head := c.Database()
		ok, w, es, err := cq.FindAnswerBindingNaive(ctx, q2, db, head)
		return ok, w, SearchStats(es.Nodes), err
	case witness:
		ok, w, es, err := cq.FindAnswerBindingFrozen(ctx, q2, c.fz, c.head)
		return ok, w, SearchStats(es.Nodes), err
	}
	ok, es, err := cq.HasAnswerFrozen(ctx, q2, c.fz, c.head)
	return ok, nil, SearchStats(es.Nodes), err
}

// decide is search with the chase's work merged into the Stats: the
// books of one containment test that built c for itself alone.
func (c *CanonicalDB) decide(ctx context.Context, q2 *cq.Query, naive bool) (bool, Stats, error) {
	st := c.ChaseStats()
	ok, _, search, err := c.search(ctx, q2, naive, false)
	st.Merge(search)
	return ok, st, err
}
