package containment

import (
	"context"

	"keyedeq/internal/chase"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
)

// Containment under a full dependency theory: EGDs (keys/FDs) plus TGDs
// (inclusion dependencies).  For a terminating chase — guaranteed when
// the TGD set is weakly acyclic — the classical result applies: q1 ⊑ q2
// over all theory-satisfying instances iff q2 retrieves q1's frozen head
// from the chased canonical database of q1.

// DefaultTGDRounds bounds the TGD chase; weakly acyclic sets terminate
// long before any sensible bound.
const DefaultTGDRounds = 64

// ContainedUnderTheory reports whether q1 ⊑ q2 over every instance of s
// satisfying both the egds and the tgds.  With no tgds it returns what
// ContainedUnder returns under the egds, Stats included.
func ContainedUnderTheory(q1, q2 *cq.Query, s *schema.Schema, egds []fd.FD, tgds []chase.TGD, maxRounds int) (bool, Stats, error) {
	if err := CheckComparable(q1, q2, s); err != nil {
		return false, Stats{}, err
	}
	return theoryDB(q1, s, egds, tgds, maxRounds).decide(context.Background(), q2, false)
}

// EquivalentUnderTheory reports mutual containment under the theory.
func EquivalentUnderTheory(q1, q2 *cq.Query, s *schema.Schema, egds []fd.FD, tgds []chase.TGD, maxRounds int) (bool, Stats, error) {
	if err := CheckComparable(q1, q2, s); err != nil {
		return false, Stats{}, err
	}
	ok, st, err := theoryDB(q1, s, egds, tgds, maxRounds).decide(context.Background(), q2, false)
	if err != nil || !ok {
		return false, st, err
	}
	ok, st2, err := theoryDB(q2, s, egds, tgds, maxRounds).decide(context.Background(), q1, false)
	st.Merge(st2)
	return ok, st, err
}

// theoryDB builds q's canonical database chased with the whole theory.
// maxRounds ≤ 0 means DefaultTGDRounds.  A theory with no dependencies
// chases nothing, as NewCanonicalDB does with no deps.
func theoryDB(q *cq.Query, s *schema.Schema, egds []fd.FD, tgds []chase.TGD, maxRounds int) *CanonicalDB {
	if maxRounds <= 0 {
		maxRounds = DefaultTGDRounds
	}
	comp := cq.Compile(q)
	defer comp.Release()
	c, _, _ := buildCanonicalDB(q, comp, s, func(tb *chase.Tableau) (chase.Stats, error) {
		if len(egds) == 0 && len(tgds) == 0 {
			return chase.Stats{}, nil
		}
		return tb.RunWithTGDs(egds, tgds, maxRounds)
	})
	return c
}
