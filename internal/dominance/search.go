package dominance

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/mapping"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Bounded exhaustive search for dominance/equivalence witnesses.  This is
// deliberately the *semantic* route the paper's Theorem 13 renders
// unnecessary: enumerate candidate conjunctive query mappings within
// syntactic bounds and certificate-check them (validity + β∘α = id, both
// decided symbolically, one view at a time).  Experiments T1/T7/F2 use it
// to confirm the theorem on exhaustive small schema spaces and to measure
// how fast the semantic route blows up compared to the canonical-form
// test.

// SearchBounds bound the candidate query space.
type SearchBounds struct {
	// MaxAtoms is the maximum number of body atoms per view (≥ 1).
	MaxAtoms int
	// MaxEqs is the maximum number of equality predicates per view.
	MaxEqs int
	// MaxViews caps the views enumerated per destination relation;
	// 0 means unlimited.
	MaxViews int
	// MaxPairs caps the identity checks by position, 0 meaning no cap:
	// relation R of S1 against its j-th valid view for the k-th valid α
	// sits at k·Σ|β_R′| + Σ_{R′<R}|β_R′| + j.  With one relation in S1
	// that is the (α, β) pair's index in α-major order.
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
	// ViewsPerRelation lists the number of candidate views of each
	// destination relation of the α direction, in the destination's
	// relation order, up to the first relation with none.
	// SearchEquivalence lists its first direction's relations, then its
	// second's.
	ViewsPerRelation []int
	// AlphaCandidates and BetaCandidates count the candidate mappings,
	// and ValidAlphas and ValidBetas those passing the validity check:
	// products of per-relation view counts, saturating at MaxInt64.
	AlphaCandidates int64
	BetaCandidates  int64
	ValidAlphas     int64
	ValidBetas      int64
	// PairsChecked counts identity checks, one per (α, R, β_R) with R a
	// relation of S1 and β_R a valid view of it; with one relation in
	// S1, one per (α, β) pair.
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
bodies:
	for _, body := range enumerateBodies(src, b.MaxAtoms) {
		// Collect typed variables.
		type tv struct {
			v cq.Var
			t value.Type
		}
		var vars []tv
		for _, a := range body {
			rel := src.Relation(a.Rel)
			for p, v := range a.Vars {
				vars = append(vars, tv{v: v, t: rel.Attrs[p].Type})
			}
		}
		// Head choices per target position: body variables of the right
		// type, plus any offered constants of that type.
		choices := make([][]cq.Term, target.Arity())
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
				continue bodies
			}
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

// SearchOptions tune how the search runs; the zero value runs it inline
// with containment.EquivalentUnderCtx.
type SearchOptions struct {
	// Workers is how many goroutines claim valid α's in order; 0 or 1
	// runs the search inline.  Only PairsChecked depends on it: a worker
	// finishes the α it claimed before it learns of a lower success.
	Workers int
	// Equiv decides the identity checks, e.g. the batch engine pool's
	// cached Equiv; nil means containment.EquivalentUnderCtx.
	Equiv mapping.EquivFunc
}

// SearchDominance searches for a pair (α, β) establishing S1 ≼ S2 within
// the bounds.  β is valid and β∘α = id iff each view β_R of a relation R
// of S1 is valid and, substituted through α, R's identity under S1's
// keys.  So the search walks the valid α's in α-major order and takes,
// for each R, the first such β_R; the first α every R passes gives the
// witness, the lowest passing (α, β) pair.  found=false is inconclusive
// when stats.Truncated, else no witness exists in the bounds.  ctx
// reaches every identity check, and cancelling it stops the search.
func SearchDominance(ctx context.Context, s1, s2 *schema.Schema, b SearchBounds, opts SearchOptions) (*Witness, bool, SearchStats, error) {
	var stats SearchStats
	var alphas, betas [][]*cq.Query
	var err error
	alphas, stats.ViewsPerRelation, stats.AlphaCandidates, stats.ValidAlphas, err = validViews(s1, s2, b)
	if err != nil {
		return nil, false, stats, err
	}
	betas, _, stats.BetaCandidates, stats.ValidBetas, err = validViews(s2, s1, b)
	if err != nil || stats.ValidAlphas == 0 || stats.ValidBetas == 0 {
		return nil, false, stats, err
	}
	// α k owns the positions from k·width on, one per β_R view: R's j-th
	// sits Σ_{R′<R}|β_R′| + j in.  Capping the position keeps truncation
	// independent of scheduling.
	var width int64
	for _, vs := range betas {
		width += int64(len(vs))
	}
	limit := b.MaxPairs
	if limit <= 0 {
		limit = math.MaxInt64
	}
	stats.Truncated = mulSat(stats.ValidAlphas, width) > limit
	// best is the lowest passing α so far, else the end of the α's with
	// a position below the cap.
	best := stats.ValidAlphas
	if width > 0 {
		best = min(best, (limit-1)/width+1)
	}
	deps := fd.KeyFDs(s1)
	var checked atomic.Int64
	check := func(k int64) (*Witness, error) {
		// α k's views are the mixed-radix digits of k, the last
		// relation's the fastest.
		alpha := &mapping.Mapping{Src: s1, Dst: s2, Queries: make([]*cq.Query, len(alphas))}
		for i, rest := len(alphas)-1, k; i >= 0; i-- {
			n := int64(len(alphas[i]))
			alpha.Queries[i], rest = alphas[i][rest%n], rest/n
		}
		beta := &mapping.Mapping{Src: s2, Dst: s1, Queries: make([]*cq.Query, len(betas))}
		room, offset := limit-k*width, int64(0)
		for r, views := range betas {
			rel := s1.Relations[r]
			for j := 0; j < len(views) && beta.Queries[r] == nil; j++ {
				if offset+int64(j) >= room {
					return nil, nil
				}
				sub, err := mapping.Substitute(views[j], alpha)
				if err != nil {
					return nil, err
				}
				sub.HeadRel = rel.Name
				checked.Add(1)
				ok, err := mapping.ViewIsIdentity(ctx, s1, deps, rel, sub, opts.Equiv)
				if err != nil {
					return nil, err
				}
				if ok {
					beta.Queries[r] = views[j]
				}
			}
			if beta.Queries[r] == nil {
				return nil, nil
			}
			offset += int64(len(views))
		}
		return &Witness{Alpha: alpha, Beta: beta}, nil
	}
	var (
		mu       sync.Mutex
		witness  *Witness
		firstErr error
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	claim := func() {
		for {
			k := next.Add(1) - 1
			mu.Lock()
			stop := firstErr != nil || k >= best
			mu.Unlock()
			if stop {
				return
			}
			w, err := check(k)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if w != nil && k < best {
				best, witness = k, w
			}
			mu.Unlock()
		}
	}
	for w := 1; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	stats.PairsChecked = checked.Load()
	if firstErr != nil {
		return nil, false, stats, firstErr
	}
	return witness, witness != nil, stats, nil
}

// validViews keeps the valid candidate views of each relation of dst
// over src, and returns them with each relation's candidate count and
// the numbers of candidate and of valid mappings (the products).  No
// mapping exists past a relation with no candidate view, where
// enumeration stops, or with no valid one, where validity checks stop.
func validViews(src, dst *schema.Schema, b SearchBounds) (valid [][]*cq.Query, perRel []int, nCands, nValid int64, err error) {
	deps := fd.KeyFDs(src)
	valid = make([][]*cq.Query, len(dst.Relations))
	nCands, nValid = 1, 1
	for i, rel := range dst.Relations {
		views := EnumerateViews(src, rel, b)
		perRel = append(perRel, len(views))
		if len(views) == 0 {
			return nil, perRel, 0, 0, nil
		}
		nCands = mulSat(nCands, int64(len(views)))
		if nValid == 0 {
			continue
		}
		for _, q := range views {
			ok, err := mapping.ViewIsValid(src, deps, rel, q)
			if err != nil {
				return nil, perRel, nCands, 0, err
			}
			if ok {
				valid[i] = append(valid[i], q)
			}
		}
		nValid = mulSat(nValid, int64(len(valid[i])))
	}
	return valid, perRel, nCands, nValid, nil
}

// mulSat returns a·b for non-negative a and b, or math.MaxInt64 where
// the product overflows.
func mulSat(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// SearchEquivalence searches for witnesses in both directions, with
// ctx and opts applied to both.  The second direction runs only when
// the first finds a witness; the stats sum the counts of every
// direction that ran.
func SearchEquivalence(ctx context.Context, s1, s2 *schema.Schema, b SearchBounds, opts SearchOptions) (bool, SearchStats, error) {
	_, ok1, st, err := SearchDominance(ctx, s1, s2, b, opts)
	if err != nil || !ok1 {
		return false, st, err
	}
	_, ok2, st2, err := SearchDominance(ctx, s2, s1, b, opts)
	st.add(st2)
	return ok2, st, err
}

// add sums o's counts into st and appends o's views per relation.
func (st *SearchStats) add(o SearchStats) {
	st.ViewsPerRelation = append(st.ViewsPerRelation, o.ViewsPerRelation...)
	st.AlphaCandidates += o.AlphaCandidates
	st.BetaCandidates += o.BetaCandidates
	st.ValidAlphas += o.ValidAlphas
	st.ValidBetas += o.ValidBetas
	st.PairsChecked += o.PairsChecked
	st.Truncated = st.Truncated || o.Truncated
}
