package cq

import (
	"fmt"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
)

// This file compiles a query body into a search plan for the streamed
// pipeline (iter.go).  A plan fixes, per connected component
// of the body's join graph, a static atom order chosen greedily by a
// most-constrained-first heuristic, and records for every atom which
// positions are already bound when the atom is matched — those positions
// become the key of a per-relation hash index, so matching an atom costs
// one bucket lookup instead of a scan over the whole relation.
//
// The plan reads the query's compiled form (compiled.go): atoms refer to
// their body classes by number, and the search binds values in flat
// slices indexed by class, so the hot path does no string hashing at
// all.

// smallRelScanThreshold is the relation cardinality at or below which a
// step scans instead of probing a hash index: building the bucket map
// costs one allocation per tuple, which a scan of that few tuples beats.
// The adaptive dispatcher (adaptive.go) applies the same bound to the
// whole query: with every relation at or under it no step would index,
// so the dense scan runs without a plan.
const smallRelScanThreshold = 8

// planStep is one atom of the compiled matching order.
type planStep struct {
	// atom indexes q.Body.
	atom int
	// relIdx is the index, in schema order, of the frozen relation the
	// atom matches against.
	relIdx int
	// roots holds the class of each position (the compiled form's Args).
	roots []int32
	// keyPos lists the positions whose class is bound before this step
	// runs (by a constant, a pre-bound head class, or an earlier step).
	// They form the hash-index key for this step; the remaining
	// positions bind or check during matching.
	keyPos []int
	// indexSlot identifies the shared hash index this step probes
	// (steps matching the same relation on the same positions share
	// one), or -1 when the step has no bound positions and scans.
	indexSlot int
}

// planComponent is one connected component of the join graph: atoms
// linked (transitively) by a shared unbound equality class.  Components
// share no unbound classes, so each is searched independently —
// backtracking inside one component can never multiply another's.
type planComponent struct {
	steps []planStep
	// headRoots lists, in head order, the class ids this component
	// determines among the query's head variables (empty for components
	// the head never mentions — those only need a non-emptiness check
	// when enumerating answers).
	headRoots []int32
}

// searchPlan is the compiled form of one homomorphism search over a
// fixed query and database.
type searchPlan struct {
	comps []planComponent
	// numSlots is the number of distinct (relation, key positions)
	// hash indexes the plan's steps probe.
	numSlots int
}

// resolveRelations maps each body atom to its relation's index in s's
// order — also its index among a database's relations and a frozen
// view's — rejecting unknown relations and arity mismatches.  The naive
// oracle calls it; the adaptive arms resolve the compiled form instead
// (resolveCompiled), with the same errors.
func resolveRelations(q *Query, s *schema.Schema) ([]int, error) {
	idxs := make([]int, len(q.Body))
	for i, a := range q.Body {
		ri := s.RelationIndex(a.Rel)
		if ri < 0 || len(a.Vars) != s.Relations[ri].Arity() {
			return nil, relationErr(a, ri < 0)
		}
		idxs[i] = ri
	}
	return idxs, nil
}

// resolveCompiled resolves c, compiled from q, against s, leaving each
// atom's relation index in c.Rels, and returns resolveRelations' error
// for the first atom s lacks or has at another arity.
func resolveCompiled(q *Query, c *Compiled, s *schema.Schema) error {
	c.Resolve(q, s)
	if c.relAtom < 0 {
		return nil
	}
	return relationErr(q.Body[c.relAtom], c.Rels[c.relAtom] < 0)
}

// relationErr is the search's error for atom a, whose relation the
// database lacks (unknown) or has at another arity.
func relationErr(a Atom, unknown bool) error {
	if unknown {
		return fmt.Errorf("cq: no relation %q in database", a.Rel)
	}
	return fmt.Errorf("cq: %s arity mismatch", a.Rel)
}

// ufFind is the path-halving find of buildPlan's union-find over atoms.
func ufFind(parent []int, i int) int {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// equalPos reports whether two key-position lists are identical.
func equalPos(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, p := range a {
		if p != b[i] {
			return false
		}
	}
	return true
}

// buildPlan compiles the plan for the compiled query comp over fz, whose
// relation comp.Rels[i] body atom i matches (resolveCompiled).
// prebound marks the body classes whose value is
// fixed before the search starts (constant-bound classes, plus the head
// classes when searching for a specific answer tuple); entries past
// comp.BodyClasses are ignored.
//
// Plan compilation is the pipeline's setup cost, paid on every
// pipeline search, so the compile stays lean: two arenas (one int, one
// bool) back every scratch table and every step's key-position list,
// and index-slot sharing compares position lists directly instead of
// building signature strings.
func buildPlan(comp *Compiled, fz *instance.Frozen, prebound []bool) *searchPlan {
	roots := comp.Args
	n, nc := len(roots), comp.BodyClasses
	plan := &searchPlan{}
	total := 0
	for _, args := range roots {
		total += len(args)
	}
	preboundID := prebound[:nc:nc]
	// Bool arena: the head-dedup set, the ordering bound scratch
	// (rewritten whole per component by a copy), and one placed flag per
	// atom (carved disjointly per component).
	bools := make([]bool, 2*nc+n)
	seen := bools[:nc:nc]
	boundScratch := bools[nc : 2*nc : 2*nc]
	placedArena := bools[2*nc:]

	// Union-find over atoms: two atoms connect when they share an
	// unbound class.  Classes fixed before the search carry no join
	// constraint between atoms — each atom filters against the fixed
	// value independently.  The int arena backs the union-find, the
	// component grouping (CSR: comp ci's atoms are atomList
	// [compStart[ci]:compStart[ci+1]], in body order), each class's
	// component, and the steps' key-position lists.
	ints := make([]int, 5*n+2*nc+total+1)
	parent, ints := ints[:n:n], ints[n:]
	for i := range parent {
		parent[i] = i
	}
	firstAtomOf, ints := ints[:nc:nc], ints[nc:]
	for i := range firstAtomOf {
		firstAtomOf[i] = -1
	}
	for i := range roots {
		for _, id := range roots[i] {
			if preboundID[id] {
				continue
			}
			if j := firstAtomOf[id]; j >= 0 {
				ri, rj := ufFind(parent, i), ufFind(parent, j)
				if ri != rj {
					parent[ri] = rj
				}
			} else {
				firstAtomOf[id] = i
			}
		}
	}

	// Group atoms into components ordered by first appearance: number
	// the component roots, count, prefix-sum, place.
	compOf, ints := ints[:n:n], ints[n:]
	for i := range compOf {
		compOf[i] = -1
	}
	ncomps := 0
	for i := 0; i < n; i++ {
		if root := ufFind(parent, i); compOf[root] < 0 {
			compOf[root] = ncomps
			ncomps++
		}
	}
	compStart, ints := ints[:ncomps+1:ncomps+1], ints[ncomps+1:]
	for i := 0; i < n; i++ {
		compStart[compOf[ufFind(parent, i)]+1]++
	}
	for ci := 0; ci < ncomps; ci++ {
		compStart[ci+1] += compStart[ci]
	}
	atomList, ints := ints[:n:n], ints[n:]
	next, ints := ints[:ncomps:ncomps], ints[ncomps:]
	copy(next, compStart[:ncomps])
	for i := 0; i < n; i++ {
		ci := compOf[ufFind(parent, i)]
		atomList[next[ci]] = i
		next[ci]++
	}
	rootComp, keyArena := ints[:nc:nc], ints[nc:]
	for i := range rootComp {
		rootComp[i] = -1
	}

	plan.comps = make([]planComponent, ncomps)
	stepsArena := make([]planStep, n)
	for ci := 0; ci < ncomps; ci++ {
		atoms := atomList[compStart[ci]:compStart[ci+1]]
		plan.comps[ci], keyArena = orderComponent(atoms, fz, comp.Rels, roots, preboundID,
			boundScratch, placedArena[compStart[ci]:compStart[ci+1]],
			stepsArena[compStart[ci]:compStart[ci]:compStart[ci+1]], keyArena)
		for _, ai := range atoms {
			for _, id := range roots[ai] {
				if !preboundID[id] {
					rootComp[id] = ci
				}
			}
		}
	}

	// Steps matching the same relation on the same key positions share
	// one hash index; resolve the slot assignment now so the search's
	// probe path is a slice access.  Relations at or under
	// smallRelScanThreshold tuples scan instead — walking a handful of
	// tuples is cheaper than building a bucket map for them.
	slotSteps := make([]*planStep, 0, n)
	for ci := range plan.comps {
		for si := range plan.comps[ci].steps {
			st := &plan.comps[ci].steps[si]
			st.indexSlot = -1
			if len(st.keyPos) == 0 || fz.Relations[st.relIdx].NumRows() <= smallRelScanThreshold {
				continue
			}
			for slot, have := range slotSteps {
				if have.relIdx == st.relIdx && equalPos(have.keyPos, st.keyPos) {
					st.indexSlot = slot
					break
				}
			}
			if st.indexSlot < 0 {
				st.indexSlot = len(slotSteps)
				slotSteps = append(slotSteps, st)
			}
		}
	}
	plan.numSlots = len(slotSteps)

	// Assign head classes to the component that determines them.
	for _, id := range comp.Head {
		if id < 0 || int(id) >= nc || preboundID[id] || seen[id] {
			// Skip constants and prebound classes.  A head variable of a
			// valid query occurs in the body, so its class is a body
			// class; be defensive and skip rather than panic on
			// unvalidated queries.
			continue
		}
		seen[id] = true
		if ci := rootComp[id]; ci >= 0 {
			c := &plan.comps[ci]
			c.headRoots = append(c.headRoots, id)
		}
	}
	return plan
}

// orderComponent fixes the matching order of one component's atoms:
// repeatedly pick the unplaced atom with the most bound positions,
// breaking ties by smaller relation cardinality, then original body
// order.  Each step records its bound positions as the index key.
// bound is scratch rewritten whole by the preboundID copy; placed and
// steps are this component's disjoint carvings of the caller's arenas;
// keyArena backs the steps' key-position lists, with the unconsumed
// tail returned.
func orderComponent(atoms []int, fz *instance.Frozen, relIdxs []int32, roots [][]int32, preboundID []bool,
	bound, placed []bool, steps []planStep, keyArena []int) (planComponent, []int) {
	copy(bound, preboundID)
	for k := range placed {
		placed[k] = false
	}
	comp := planComponent{steps: steps}
	for len(comp.steps) < len(atoms) {
		best, bestK, bestBound, bestCard := -1, -1, -1, 0
		for k, ai := range atoms {
			if placed[k] {
				continue
			}
			b := 0
			for _, id := range roots[ai] {
				if bound[id] {
					b++
				}
			}
			card := fz.Relations[relIdxs[ai]].NumRows()
			if b > bestBound || (b == bestBound && card < bestCard) {
				best, bestK, bestBound, bestCard = ai, k, b, card
			}
		}
		placed[bestK] = true
		step := planStep{atom: best, relIdx: int(relIdxs[best]), roots: roots[best]}
		nk := 0
		for _, id := range roots[best] {
			if bound[id] {
				nk++
			}
		}
		step.keyPos, keyArena = keyArena[:0:nk], keyArena[nk:]
		for p, id := range roots[best] {
			if bound[id] {
				step.keyPos = append(step.keyPos, p)
			}
		}
		for _, id := range roots[best] {
			bound[id] = true
		}
		comp.steps = append(comp.steps, step)
	}
	return comp, keyArena
}
