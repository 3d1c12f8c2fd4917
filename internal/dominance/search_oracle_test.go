package dominance

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/mapping"
	"keyedeq/internal/schema"
)

// The search the relation-by-relation loop replaced, kept verbatim but
// for the two names as the oracle of TestSearchMatchesOracle: it builds
// every α and every β as whole mappings and checks (α, β) pairs in
// α-major order, sequentially or on workers that claim pair indexes.

// enumerateMappingsOracle lists all candidate mappings src → dst within the
// bounds (the cartesian product of per-relation view choices).
func enumerateMappingsOracle(src, dst *schema.Schema, b SearchBounds, stats *SearchStats, dir int) []*mapping.Mapping {
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

// searchDominanceOracle searches for a pair (α, β) establishing S1 ≼ S2 within
// the bounds.  found=false with stats.Truncated=true is inconclusive;
// found=false with Truncated=false means no witness exists in the bounded
// space.  ctx reaches every certificate check: cancelling it stops the
// pair loop (sequential or parallel) and aborts the chase and
// homomorphism searches mid-pair.
func searchDominanceOracle(ctx context.Context, s1, s2 *schema.Schema, b SearchBounds, opts SearchOptions) (*Witness, bool, SearchStats, error) {
	var stats SearchStats
	alphas := enumerateMappingsOracle(s1, s2, b, &stats, 0)
	betas := enumerateMappingsOracle(s2, s1, b, &stats, 1)
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

// oracleCase is one input of TestSearchMatchesOracle: a dominance
// direction S1 ≼ S2 and its bounds.
type oracleCase struct {
	name   string
	s1, s2 *schema.Schema
	b      SearchBounds
}

// oracleCases lists both directions of every pair of T1's full-mode
// space (27 keyed schemas with at most 2 relations and 2 attributes) at
// quick mode's one-atom T1 bounds, both directions of T7's isomorphic
// and near-miss fixtures at widths 1–3 (its seed and bounds), and both
// directions of the two-relation pair of
// TestSearchEquivalenceStatsSumBothDirections.
func oracleCases() []oracleCase {
	var cases []oracleCase
	both := func(name string, s1, s2 *schema.Schema, b SearchBounds) {
		cases = append(cases, oracleCase{name + " fwd", s1, s2, b})
		if s1 != s2 {
			cases = append(cases, oracleCase{name + " rev", s2, s1, b})
		}
	}
	t1 := gen.EnumerateKeyedSchemas(gen.SchemaSpace{MaxRelations: 2, MaxAttrs: 2, Types: 2})
	t1Bounds := SearchBounds{MaxAtoms: 1, MaxEqs: 1, MaxViews: 2000, MaxPairs: 200_000}
	for i := range t1 {
		for j := i; j < len(t1); j++ {
			both(fmt.Sprintf("T1 %d/%d", i, j), t1[i], t1[j], t1Bounds)
		}
	}
	t7Bounds := SearchBounds{MaxAtoms: 1, MaxEqs: 1, MaxViews: 20000, MaxPairs: 500_000}
	rng := rand.New(rand.NewSource(6))
	for attrs := 1; attrs <= 3; attrs++ {
		r := &schema.Relation{Name: "R", Key: []int{0}}
		for p := 0; p < attrs; p++ {
			r.Attrs = append(r.Attrs, schema.Attribute{Name: fmt.Sprintf("a%d", p), Type: 1})
		}
		s1 := schema.MustNew(r)
		s2, _ := schema.RandomIsomorph(s1, rng)
		both(fmt.Sprintf("T7 %d isomorphic", attrs), s1, s2, t7Bounds)
		if attrs >= 2 {
			r3 := r.Clone()
			r3.Key = []int{0, 1}
			both(fmt.Sprintf("T7 %d near-miss", attrs), s1, schema.MustNew(r3), t7Bounds)
		}
	}
	both("two-relation", schema.MustParse("R(a*:T1, b:T2)"),
		schema.MustParse("P(x:T2, y*:T1)\nQ(z:T1)"), smallBounds())
	return cases
}

// countingEquiv returns containment.EquivalentUnderCtx with a counter of
// its calls.
func countingEquiv() (mapping.EquivFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, containment.Stats, error) {
		calls.Add(1)
		return containment.EquivalentUnderCtx(ctx, q1, q2, s, deps)
	}, &calls
}

// TestSearchMatchesOracle holds SearchDominance to the pair-by-pair
// search it replaced, on oracleCases at their own MaxPairs and at 1, 7
// and 100, with 1 and 4 workers.  It requires:
//   - the same found flag and witness (α and β rendered) wherever
//     neither search truncates, and always when S1 has one relation, as
//     the positions of the checks are then the oracle's pair indexes;
//   - the same views per relation and the same candidate and valid
//     counts; the same Truncated when S1 has one relation;
//   - one decider call per counted identity check;
//   - with 1 worker, the oracle's PairsChecked when S1 has one relation,
//     and otherwise, where neither search truncates, no more checks than
//     the oracle made decider calls: each check the loop makes is one
//     the oracle's identity test made for some (α, β) pair.
//
// Over T1's space the loop must also make fewer checks in all than the
// oracle checked pairs.
func TestSearchMatchesOracle(t *testing.T) {
	ctx := context.Background()
	cases := oracleCases()
	var t1Checks, t1Pairs int64
	for _, workers := range []int{1, 4} {
		for _, maxPairs := range []int64{0, 1, 7, 100} {
			for _, c := range cases {
				b := c.b
				if maxPairs > 0 {
					b.MaxPairs = maxPairs
				}
				name := fmt.Sprintf("%s workers=%d MaxPairs=%d", c.name, workers, b.MaxPairs)
				oEquiv, oCalls := countingEquiv()
				ow, ofound, ost, err := searchDominanceOracle(ctx, c.s1, c.s2, b, SearchOptions{Workers: workers, Equiv: oEquiv})
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				nEquiv, nCalls := countingEquiv()
				nw, nfound, nst, err := SearchDominance(ctx, c.s1, c.s2, b, SearchOptions{Workers: workers, Equiv: nEquiv})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				oneRel := len(c.s1.Relations) == 1
				if oneRel || (!ost.Truncated && !nst.Truncated) {
					if nfound != ofound {
						t.Fatalf("%s: found %v, oracle %v", name, nfound, ofound)
					}
					if nfound && (nw.Alpha.String() != ow.Alpha.String() || nw.Beta.String() != ow.Beta.String()) {
						t.Fatalf("%s: witness\nα %s\nβ %s\noracle's\nα %s\nβ %s", name, nw.Alpha, nw.Beta, ow.Alpha, ow.Beta)
					}
				}
				got, want := nst, ost
				got.PairsChecked, want.PairsChecked = 0, 0
				if !oneRel {
					got.Truncated, want.Truncated = false, false
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: stats\n got  %+v\n want %+v", name, nst, ost)
				}
				if nst.PairsChecked != nCalls.Load() {
					t.Fatalf("%s: PairsChecked %d, decider calls %d", name, nst.PairsChecked, nCalls.Load())
				}
				if workers > 1 {
					continue
				}
				switch {
				case oneRel && nst.PairsChecked != ost.PairsChecked:
					t.Fatalf("%s: PairsChecked %d, oracle %d", name, nst.PairsChecked, ost.PairsChecked)
				case !ost.Truncated && !nst.Truncated && nst.PairsChecked > oCalls.Load():
					t.Fatalf("%s: %d identity checks, oracle %d decider calls", name, nst.PairsChecked, oCalls.Load())
				}
				if maxPairs == 0 && strings.HasPrefix(c.name, "T1 ") {
					t1Checks += nst.PairsChecked
					t1Pairs += ost.PairsChecked
				}
			}
		}
	}
	if t1Checks >= t1Pairs {
		t.Fatalf("T1's space: %d identity checks, oracle %d pairs", t1Checks, t1Pairs)
	}
	t.Logf("T1's space, both directions: %d identity checks, oracle %d pairs", t1Checks, t1Pairs)
}
