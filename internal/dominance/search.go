package dominance

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"keyedeq/internal/cq"
	"keyedeq/internal/mapping"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Bounded exhaustive search for dominance/equivalence witnesses.  This is
// deliberately the *semantic* route the paper's Theorem 13 renders
// unnecessary: enumerate candidate conjunctive query mappings within
// syntactic bounds, and certificate-check each pair (validity + β∘α = id,
// both decided symbolically).  Experiments T1/T7/F2 use it to confirm the
// theorem on exhaustive small schema spaces and to measure how fast the
// semantic route blows up compared to the canonical-form test.

// SearchBounds bound the candidate query space.
type SearchBounds struct {
	// MaxAtoms is the maximum number of body atoms per view (≥ 1).
	MaxAtoms int
	// MaxEqs is the maximum number of equality predicates per view.
	MaxEqs int
	// MaxViews caps the views enumerated per destination relation;
	// 0 means unlimited.
	MaxViews int
	// MaxPairs caps the number of (α, β) pairs certificate-checked;
	// 0 means unlimited.
	MaxPairs int64
	// Constants, when non-empty, are additionally offered as head terms
	// (queries may emit fixed constants, so a complete search must try
	// them; Theorem 13 predicts they never help).
	Constants []value.Value
}

// DefaultBounds are suitable for the exhaustive small-schema experiments.
func DefaultBounds() SearchBounds {
	return SearchBounds{MaxAtoms: 2, MaxEqs: 1, MaxViews: 20000, MaxPairs: 2_000_000}
}

// SearchStats reports the work a search did.
type SearchStats struct {
	// ViewsPerRelation counts candidate views per destination relation
	// of the α direction.
	ViewsPerRelation []int
	// AlphaCandidates and BetaCandidates count complete candidate
	// mappings enumerated (before validity filtering).
	AlphaCandidates int64
	BetaCandidates  int64
	// ValidAlphas and ValidBetas count mappings passing the validity
	// check.
	ValidAlphas int64
	ValidBetas  int64
	// PairsChecked counts (α, β) pairs run through the identity test.
	PairsChecked int64
	// Truncated records that a cap was hit before the space was
	// exhausted; a negative search result is then inconclusive.
	Truncated bool
}

// EnumerateViews lists the candidate conjunctive queries defining target
// from src within the bounds: bodies are multisets of src relations of
// size 1..MaxAtoms, equality lists are sets of at most MaxEqs same-type
// variable pairs, and heads assign each target attribute a body variable
// of its type.  Queries whose head types cannot be realized produce no
// views.
func EnumerateViews(src *schema.Schema, target *schema.Relation, b SearchBounds) []*cq.Query {
	if b.MaxAtoms < 1 {
		b.MaxAtoms = 1
	}
	var out []*cq.Query
	bodies := enumerateBodies(src, b.MaxAtoms)
	for _, body := range bodies {
		// Collect typed variables.
		type tv struct {
			v cq.Var
			t value.Type
		}
		var vars []tv
		for i, a := range body {
			rel := src.Relation(a.Rel)
			for p, v := range a.Vars {
				vars = append(vars, tv{v: v, t: rel.Attrs[p].Type})
			}
			_ = i
		}
		// Candidate equality pairs.
		var pairs [][2]cq.Var
		for i := 0; i < len(vars); i++ {
			for j := i + 1; j < len(vars); j++ {
				if vars[i].t == vars[j].t {
					pairs = append(pairs, [2]cq.Var{vars[i].v, vars[j].v})
				}
			}
		}
		for _, eqSet := range subsetsUpTo(len(pairs), b.MaxEqs) {
			var eqs []cq.Equality
			for _, pi := range eqSet {
				eqs = append(eqs, cq.Equality{Left: pairs[pi][0], Right: cq.Term{Var: pairs[pi][1]}})
			}
			// Head choices per target position: body variables of the
			// right type, plus any offered constants of that type.
			choices := make([][]cq.Term, target.Arity())
			feasible := true
			for p, attr := range target.Attrs {
				for _, v := range vars {
					if v.t == attr.Type {
						choices[p] = append(choices[p], cq.Term{Var: v.v})
					}
				}
				for _, c := range b.Constants {
					if c.Type == attr.Type {
						choices[p] = append(choices[p], cq.C(c))
					}
				}
				if len(choices[p]) == 0 {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			idx := make([]int, target.Arity())
			for {
				q := &cq.Query{HeadRel: target.Name}
				q.Body = cloneAtoms(body)
				q.Eqs = append([]cq.Equality(nil), eqs...)
				for p := range idx {
					q.Head = append(q.Head, choices[p][idx[p]])
				}
				out = append(out, q)
				if b.MaxViews > 0 && len(out) >= b.MaxViews {
					return out
				}
				if !increment(idx, choices) {
					break
				}
			}
		}
	}
	return out
}

// enumerateBodies lists bodies: multisets of relations of size 1..max,
// with globally distinct placeholder variables.
func enumerateBodies(src *schema.Schema, max int) [][]cq.Atom {
	var out [][]cq.Atom
	n := len(src.Relations)
	var build func(start, remaining int, cur []int)
	build = func(start, remaining int, cur []int) {
		if len(cur) > 0 {
			out = append(out, makeAtoms(src, cur))
		}
		if remaining == 0 {
			return
		}
		for i := start; i < n; i++ {
			build(i, remaining-1, append(cur, i))
		}
	}
	build(0, max, nil)
	return out
}

func makeAtoms(src *schema.Schema, relIdx []int) []cq.Atom {
	atoms := make([]cq.Atom, len(relIdx))
	for i, ri := range relIdx {
		r := src.Relations[ri]
		a := cq.Atom{Rel: r.Name}
		for p := range r.Attrs {
			a.Vars = append(a.Vars, cq.Var(fmt.Sprintf("a%d_%d", i, p)))
		}
		atoms[i] = a
	}
	return atoms
}

func cloneAtoms(atoms []cq.Atom) []cq.Atom {
	out := make([]cq.Atom, len(atoms))
	for i, a := range atoms {
		out[i] = cq.Atom{Rel: a.Rel, Vars: append([]cq.Var(nil), a.Vars...)}
	}
	return out
}

// subsetsUpTo enumerates subsets of {0..n-1} of size at most k, including
// the empty set.
func subsetsUpTo(n, k int) [][]int {
	out := [][]int{nil}
	var build func(start int, cur []int)
	build = func(start int, cur []int) {
		if len(cur) >= k {
			return
		}
		for i := start; i < n; i++ {
			next := append(append([]int(nil), cur...), i)
			out = append(out, next)
			build(i+1, next)
		}
	}
	build(0, nil)
	return out
}

// increment advances a mixed-radix counter; false on wraparound.
func increment(idx []int, choices [][]cq.Term) bool {
	for p := len(idx) - 1; p >= 0; p-- {
		idx[p]++
		if idx[p] < len(choices[p]) {
			return true
		}
		idx[p] = 0
	}
	return false
}

// EnumerateMappings lists all candidate mappings src → dst within the
// bounds (the cartesian product of per-relation view choices).
func EnumerateMappings(src, dst *schema.Schema, b SearchBounds, stats *SearchStats, dir int) []*mapping.Mapping {
	views := make([][]*cq.Query, len(dst.Relations))
	for i, r := range dst.Relations {
		views[i] = EnumerateViews(src, r, b)
		if dir == 0 && stats != nil {
			stats.ViewsPerRelation = append(stats.ViewsPerRelation, len(views[i]))
		}
		if len(views[i]) == 0 {
			return nil
		}
	}
	var out []*mapping.Mapping
	idx := make([]int, len(dst.Relations))
	for {
		qs := make([]*cq.Query, len(dst.Relations))
		for i := range idx {
			qs[i] = views[i][idx[i]].Clone()
		}
		if m, err := mapping.New(src, dst, qs); err == nil {
			out = append(out, m)
		}
		if stats != nil {
			if dir == 0 {
				stats.AlphaCandidates++
			} else {
				stats.BetaCandidates++
			}
		}
		// Advance.
		p := len(idx) - 1
		for p >= 0 {
			idx[p]++
			if idx[p] < len(views[p]) {
				break
			}
			idx[p] = 0
			p--
		}
		if p < 0 {
			return out
		}
	}
}

// SearchOptions tune how the certificate-check pair loop runs.  The
// zero value reproduces the sequential search exactly.
type SearchOptions struct {
	// Workers parallelizes the (α, β) identity checks; 0 or 1 keeps the
	// loop sequential.  The found/not-found verdict and the returned
	// witness (the lowest-numbered successful pair) are deterministic
	// either way; only PairsChecked may vary, since workers stop early
	// once a witness below their index is known.
	Workers int
	// Equiv, when non-nil, decides the per-relation CQ equivalences of
	// the identity test — e.g. the batch engine pool's cached Equiv; nil
	// means containment.EquivalentUnderCtx.
	Equiv mapping.EquivFunc
}

// SearchDominance searches for a pair (α, β) establishing S1 ≼ S2 within
// the bounds.  found=false with stats.Truncated=true is inconclusive;
// found=false with Truncated=false means no witness exists in the bounded
// space.  ctx reaches every certificate check: cancelling it stops the
// pair loop (sequential or parallel) and aborts the chase and
// homomorphism searches mid-pair.
func SearchDominance(ctx context.Context, s1, s2 *schema.Schema, b SearchBounds, opts SearchOptions) (*Witness, bool, SearchStats, error) {
	var stats SearchStats
	alphas := EnumerateMappings(s1, s2, b, &stats, 0)
	betas := EnumerateMappings(s2, s1, b, &stats, 1)
	// Filter by validity first (cheap relative to the identity check).
	var validAlphas []*mapping.Mapping
	for _, a := range alphas {
		ok, err := a.IsValid()
		if err != nil {
			return nil, false, stats, err
		}
		if ok {
			validAlphas = append(validAlphas, a)
		}
	}
	stats.ValidAlphas = int64(len(validAlphas))
	var validBetas []*mapping.Mapping
	for _, bm := range betas {
		ok, err := bm.IsValid()
		if err != nil {
			return nil, false, stats, err
		}
		if ok {
			validBetas = append(validBetas, bm)
		}
	}
	stats.ValidBetas = int64(len(validBetas))

	// Materialize the pair list in deterministic α-major order, applying
	// the MaxPairs cap before dispatch so truncation does not depend on
	// scheduling.
	type pair struct{ a, b *mapping.Mapping }
	var pairs []pair
	for _, a := range validAlphas {
		for _, bm := range validBetas {
			if b.MaxPairs > 0 && int64(len(pairs)) >= b.MaxPairs {
				stats.Truncated = true
				break
			}
			pairs = append(pairs, pair{a, bm})
		}
		if stats.Truncated {
			break
		}
	}

	if opts.Workers <= 1 {
		for _, p := range pairs {
			if err := ctx.Err(); err != nil {
				return nil, false, stats, err
			}
			stats.PairsChecked++
			ok, err := mapping.RoundTripIsIdentity(ctx, p.a, p.b, opts.Equiv)
			if err != nil {
				return nil, false, stats, err
			}
			if ok {
				return &Witness{Alpha: p.a, Beta: p.b}, true, stats, nil
			}
		}
		return nil, false, stats, nil
	}

	// Parallel loop: workers claim pair indexes in order and record the
	// lowest successful one; indexes above a known success are skipped.
	var (
		mu       sync.Mutex
		best     = -1
		firstErr error
		next     atomic.Int64
		checked  atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				stop := firstErr != nil || (best >= 0 && best < i)
				mu.Unlock()
				if stop {
					return
				}
				checked.Add(1)
				ok, err := mapping.RoundTripIsIdentity(ctx, pairs[i].a, pairs[i].b, opts.Equiv)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if ok && (best < 0 || i < best) {
					best = i
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stats.PairsChecked = checked.Load()
	if firstErr != nil {
		return nil, false, stats, firstErr
	}
	if best >= 0 {
		return &Witness{Alpha: pairs[best].a, Beta: pairs[best].b}, true, stats, nil
	}
	return nil, false, stats, nil
}

// SearchEquivalence searches for witnesses in both directions, with
// ctx and opts applied to both.
func SearchEquivalence(ctx context.Context, s1, s2 *schema.Schema, b SearchBounds, opts SearchOptions) (bool, SearchStats, error) {
	w1, ok1, st1, err := SearchDominance(ctx, s1, s2, b, opts)
	if err != nil || !ok1 {
		return false, st1, err
	}
	_ = w1
	_, ok2, st2, err := SearchDominance(ctx, s2, s1, b, opts)
	st := st1
	st.PairsChecked += st2.PairsChecked
	st.AlphaCandidates += st2.AlphaCandidates
	st.BetaCandidates += st2.BetaCandidates
	st.Truncated = st1.Truncated || st2.Truncated
	return ok2, st, err
}
