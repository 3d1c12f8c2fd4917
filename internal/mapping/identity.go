package mapping

import (
	"context"
	"fmt"

	"keyedeq/internal/chase"
	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
)

// EquivFunc decides CQ equivalence under dependencies, honouring ctx:
// cancellation and deadlines reach the chase and homomorphism searches
// behind it.  containment.EquivalentUnderCtx is the default; the batch
// engine pool's cached Equiv slots in by plain function-type
// assignability without this package importing it.
type EquivFunc func(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, containment.Stats, error)

// IsIdentityOn reports whether m (a mapping S → S, possibly with Src and
// Dst structurally equal) is the identity on every instance of its source
// satisfying deps: whether each view passes ViewIsIdentity, with equiv
// and ctx.  With deps = fd.KeyFDs(src) this is exactly the paper's "β∘α
// is the identity map on i(S1)" over keyed instances.
func (m *Mapping) IsIdentityOn(ctx context.Context, deps []fd.FD, equiv EquivFunc) (bool, error) {
	if len(m.Src.Relations) != len(m.Dst.Relations) {
		return false, nil
	}
	for i, q := range m.Queries {
		if !schema.SameType(m.Src.Relations[i], m.Dst.Relations[i]) {
			return false, nil
		}
		if ok, err := ViewIsIdentity(ctx, m.Src, deps, m.Src.Relations[i], q, equiv); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// ViewIsIdentity reports whether q, a query over s, is equivalent under
// deps to rel's identity query, decided by equiv (nil means
// containment.EquivalentUnderCtx); cancelling ctx aborts the decision.
func ViewIsIdentity(ctx context.Context, s *schema.Schema, deps []fd.FD, rel *schema.Relation, q *cq.Query, equiv EquivFunc) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if equiv == nil {
		equiv = containment.EquivalentUnderCtx
	}
	ok, _, err := equiv(ctx, q, cq.Identity(rel), s, deps)
	if err != nil {
		return false, fmt.Errorf("mapping: identity test for %q: %w", rel.Name, err)
	}
	return ok, nil
}

// RoundTripIsIdentity reports whether β∘α = id on key-satisfying
// instances of alpha's source — the paper's dominance condition
// S1 ≼ S2 by (α, β).  It composes symbolically and decides per-relation
// CQ equivalence with the identity under the source key dependencies
// through equiv (nil means containment.EquivalentUnderCtx), so a
// caller's cancellation or deadline stops the verification mid-pair.
func RoundTripIsIdentity(ctx context.Context, alpha, beta *Mapping, equiv EquivFunc) (bool, error) {
	comp, err := Compose(beta, alpha)
	if err != nil {
		return false, err
	}
	return comp.IsIdentityOn(ctx, fd.KeyFDs(alpha.Src), equiv)
}

// IsValid reports whether the mapping is valid in the paper's sense: it
// maps every instance of Src satisfying Src's key dependencies to an
// instance of Dst satisfying Dst's, i.e. each view passes ViewIsValid.
func (m *Mapping) IsValid() (bool, error) {
	deps := fd.KeyFDs(m.Src)
	for k, q := range m.Queries {
		if ok, err := ViewIsValid(m.Src, deps, m.Dst.Relations[k], q); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// ViewIsValid reports whether q, a view over src defining rel, maps each
// instance satisfying deps to one satisfying rel's key, decided by the
// chase-based view-key test; a view of an unkeyed relation always does.
func ViewIsValid(src *schema.Schema, deps []fd.FD, rel *schema.Relation, q *cq.Query) (bool, error) {
	if !rel.Keyed() {
		return true, nil
	}
	ok, err := chase.ViewKeyHolds(src, deps, q, rel.KeyPositions())
	if err != nil {
		return false, fmt.Errorf("mapping: validity of view %q: %v", rel.Name, err)
	}
	return ok, nil
}

// Dominates reports whether (alpha, beta) establish S1 ≼ S2 in the
// paper's full sense: both mappings are valid and β∘α is the identity on
// key-satisfying instances of S1.
func Dominates(alpha, beta *Mapping) (bool, error) {
	if okA, err := alpha.IsValid(); err != nil || !okA {
		return false, err
	}
	if okB, err := beta.IsValid(); err != nil || !okB {
		return false, err
	}
	return RoundTripIsIdentity(context.Background(), alpha, beta, nil)
}
