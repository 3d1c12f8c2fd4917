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

// EquivFunc decides CQ equivalence under dependencies.  Its signature
// matches containment.EquivalentUnder, so accelerated deciders — e.g.
// the batch engine's cached pool — slot in by plain function-type
// assignability without this package importing them.
type EquivFunc func(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, containment.Stats, error)

// EquivCtxFunc is EquivFunc with a context threaded through, so
// cancellation and per-request deadlines reach the underlying chase and
// homomorphism searches.  The engine pool's EquivCtx matches it.
type EquivCtxFunc func(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, containment.Stats, error)

// DropCtx adapts a context-free decider to EquivCtxFunc.  The returned
// function ignores ctx — it exists so the ctx-threaded code paths have
// a single shape; callers that care about cancellation supply a real
// EquivCtxFunc instead.  A nil equiv yields nil, preserving "use the
// default decider" through the adaptation.
func DropCtx(equiv EquivFunc) EquivCtxFunc {
	if equiv == nil {
		return nil
	}
	return func(_ context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, containment.Stats, error) {
		return equiv(q1, q2, s, deps)
	}
}

// IsIdentityOn reports whether m (a mapping S → S, possibly with Src and
// Dst structurally equal) is the identity on every instance of its source
// satisfying deps: each view is CQ-equivalent to the identity query of
// its relation under deps.  With deps = fd.KeyFDs(src) this is exactly
// the paper's "β∘α is the identity map on i(S1)" over keyed instances.
func (m *Mapping) IsIdentityOn(deps []fd.FD) (bool, error) {
	return m.IsIdentityOnWith(deps, containment.EquivalentUnder)
}

// IsIdentityOnWith is IsIdentityOn with the equivalence decision routed
// through equiv (nil falls back to containment.EquivalentUnder).
func (m *Mapping) IsIdentityOnWith(deps []fd.FD, equiv EquivFunc) (bool, error) {
	var ec EquivCtxFunc
	if equiv != nil {
		ec = DropCtx(equiv)
	}
	return m.IsIdentityOnCtx(context.Background(), deps, ec)
}

// IsIdentityOnCtx is IsIdentityOnWith with a context threaded into the
// per-relation equivalence decisions (nil equiv falls back to
// containment.EquivalentUnderCtx).  Cancelling ctx aborts between and inside decisions.
func (m *Mapping) IsIdentityOnCtx(ctx context.Context, deps []fd.FD, equiv EquivCtxFunc) (bool, error) {
	if equiv == nil {
		equiv = containment.EquivalentUnderCtx
	}
	if len(m.Src.Relations) != len(m.Dst.Relations) {
		return false, nil
	}
	for i, q := range m.Queries {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		src := m.Src.Relations[i]
		dst := m.Dst.Relations[i]
		if !schema.SameType(src, dst) {
			return false, nil
		}
		id := cq.Identity(src)
		ok, _, err := equiv(ctx, q, id, m.Src, deps)
		if err != nil {
			return false, fmt.Errorf("mapping: identity test for %q: %v", dst.Name, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// RoundTripIsIdentity reports whether β∘α = id on key-satisfying
// instances of alpha's source — the paper's dominance condition
// S1 ≼ S2 by (α, β).  It composes symbolically and decides per-relation
// CQ equivalence with the identity under the source key dependencies.
func RoundTripIsIdentity(alpha, beta *Mapping) (bool, error) {
	return RoundTripIsIdentityWith(alpha, beta, nil)
}

// RoundTripIsIdentityWith is RoundTripIsIdentity with the equivalence
// decision routed through equiv (nil falls back to the sequential path).
func RoundTripIsIdentityWith(alpha, beta *Mapping, equiv EquivFunc) (bool, error) {
	var ec EquivCtxFunc
	if equiv != nil {
		ec = DropCtx(equiv)
	}
	return RoundTripIsIdentityCtx(context.Background(), alpha, beta, ec)
}

// RoundTripIsIdentityCtx is RoundTripIsIdentityWith with a context
// threaded into every per-relation equivalence decision, so a caller's
// cancellation or deadline stops the symbolic verification mid-pair.
func RoundTripIsIdentityCtx(ctx context.Context, alpha, beta *Mapping, equiv EquivCtxFunc) (bool, error) {
	comp, err := Compose(beta, alpha)
	if err != nil {
		return false, err
	}
	return comp.IsIdentityOnCtx(ctx, fd.KeyFDs(alpha.Src), equiv)
}

// IsValid reports whether the mapping is valid in the paper's sense: it
// maps every instance of Src satisfying Src's key dependencies to an
// instance of Dst satisfying Dst's key dependencies.  Decided by the
// chase-based view-key test per destination relation.  Mappings between
// unkeyed schemas are always valid.
func (m *Mapping) IsValid() (bool, error) {
	deps := fd.KeyFDs(m.Src)
	for k, q := range m.Queries {
		rel := m.Dst.Relations[k]
		if !rel.Keyed() {
			continue
		}
		ok, err := chase.ViewKeyHolds(m.Src, deps, q, rel.KeyPositions())
		if err != nil {
			return false, fmt.Errorf("mapping: validity of view %q: %v", rel.Name, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
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
	return RoundTripIsIdentity(alpha, beta)
}
