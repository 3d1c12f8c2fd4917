// Package engine is the batch equivalence/containment engine: it
// canonicalizes conjunctive queries to a renaming-invariant form,
// memoizes chase results and containment verdicts in a bounded sharded
// LRU keyed by canonical-pair hash, and fans batches of query pairs
// across a worker pool with per-job timeout and cancellation.
//
// The caching is sound because Theorem 13's equivalence notion is
// invariant under exactly the transformations the canonical form
// quotients away: variable renaming and body-atom reordering change
// neither a query's answers nor, therefore, any containment or
// equivalence verdict it participates in.  A canonical key fully
// describes a query up to those transformations, so equal keys imply
// interchangeable queries.
package engine

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"keyedeq/internal/cq"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Canonical is a renaming-invariant fingerprint of a conjunctive query.
type Canonical struct {
	// Key encodes the query up to variable renaming and body-atom
	// reordering: equal keys imply queries with identical answers on
	// every database.  The converse direction (α-equivalent queries
	// producing equal keys) holds whenever Exact is true.
	Key string
	// Exact records that the tie-breaking search ran to completion, so
	// the key is a true canonical form.  When false (search budget
	// exhausted on a highly symmetric query) the key is still sound for
	// caching — it fully describes the query — but α-equivalent
	// presentations may hash to different keys, costing cache hits
	// only.
	Exact bool
}

// tieBreakBudget bounds the backtracking tie-break search.  Color
// refinement discriminates all realistic query shapes (chains, stars,
// cliques resolve with zero or automorphic-only branching); the budget
// is a backstop against adversarially symmetric inputs.
const tieBreakBudget = 1 << 14

// CanonicalizeQuery computes the canonical form of q.  The schema may
// be nil; it is consulted only to collapse unsatisfiable queries (whose
// equality lists equate distinct constants) to a shared per-head-type
// key, since all such queries are empty on every database.
func CanonicalizeQuery(q *cq.Query, s *schema.Schema) Canonical {
	c, unsat := newCanonizer(q)
	if unsat {
		return Canonical{Key: unsatKey(q, s), Exact: true}
	}
	c.refine()
	key, exact := c.encode()
	return Canonical{Key: key, Exact: exact}
}

// unsatKey collapses always-empty queries: a query whose equality list
// equates two distinct constants has no answers on any database, so
// any two such queries of equal head type are equivalent.
func unsatKey(q *cq.Query, s *schema.Schema) string {
	if s != nil {
		if ht, err := q.HeadType(s); err == nil {
			parts := make([]string, len(ht))
			for i, t := range ht {
				parts[i] = t.String()
			}
			return "UNSAT|" + strings.Join(parts, ",")
		}
	}
	return "CONFLICT|" + strconv.Itoa(len(q.Head))
}

// headTerm is a normalized head entry: a constant or a class index.
type headTerm struct {
	isConst bool
	cnst    value.Value
	class   int
}

// canonizer holds the normalized query during canonicalization.  All
// state is slice-indexed by dense class and atom numbers so every loop
// is deterministic (no map iteration anywhere on this path).
type canonizer struct {
	atomRel  []string // per atom: relation name
	relColor []int    // per atom: dense rank of its relation name
	atomArgs [][]int  // per atom: class index per position
	head     []headTerm
	// Per class:
	classConst []value.Value // bound constant (zero Value when none)
	classHasC  []bool
	classHeadP [][]int // head positions mentioning the class
	occAtom    [][]int // per class: atom index of each occurrence
	occPos     [][]int // per class: position of each occurrence
	color      []int   // current refinement color per class
}

// newCanonizer normalizes q: it resolves the equality list with a
// slot-indexed union-find (one map lookup per variable occurrence, all
// union-find state in slices), then builds the class-indexed atom and
// occurrence tables.  The second return is true when the equality list
// equates two distinct constants, i.e. the query is unsatisfiable.
func newCanonizer(q *cq.Query) (*canonizer, bool) {
	// Slot per distinct variable, in order of first appearance.  Body
	// placeholders are distinct, so their count is the variable count of
	// any valid query (equality and head variables occur in the body).
	nvars := 0
	for _, a := range q.Body {
		nvars += len(a.Vars)
	}
	slotOf := make(map[cq.Var]int, nvars)
	slot := func(v cq.Var) int {
		if i, ok := slotOf[v]; ok {
			return i
		}
		i := len(slotOf)
		slotOf[v] = i
		return i
	}
	for _, a := range q.Body {
		for _, v := range a.Vars {
			slot(v)
		}
	}
	for _, e := range q.Eqs {
		slot(e.Left)
		if !e.Right.IsConst {
			slot(e.Right.Var)
		}
	}
	for _, t := range q.Head {
		if !t.IsConst {
			slot(t.Var)
		}
	}

	n := len(slotOf)
	parent := make([]int, n)
	rnk := make([]int, n)
	hasC := make([]bool, n)        // valid on roots
	cval := make([]value.Value, n) // valid on roots with hasC
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	unsat := false
	for _, e := range q.Eqs {
		if e.Right.IsConst {
			r := find(slotOf[e.Left])
			if hasC[r] {
				if cval[r] != e.Right.Const {
					unsat = true
				}
				continue
			}
			hasC[r] = true
			cval[r] = e.Right.Const
			continue
		}
		ra, rb := find(slotOf[e.Left]), find(slotOf[e.Right.Var])
		if ra == rb {
			continue
		}
		if rnk[ra] < rnk[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if rnk[ra] == rnk[rb] {
			rnk[ra]++
		}
		if hasC[rb] {
			if hasC[ra] {
				if cval[ra] != cval[rb] {
					unsat = true
				}
			} else {
				hasC[ra] = true
				cval[ra] = cval[rb]
			}
		}
	}
	if unsat {
		return nil, true
	}

	c := &canonizer{}
	classAt := make([]int, n) // root slot -> dense class index
	for i := range classAt {
		classAt[i] = -1
	}
	c.classConst = make([]value.Value, 0, n)
	c.classHasC = make([]bool, 0, n)
	classIdx := func(v cq.Var) int {
		root := find(slotOf[v])
		if i := classAt[root]; i >= 0 {
			return i
		}
		i := len(c.classConst)
		classAt[root] = i
		c.classConst = append(c.classConst, cval[root])
		c.classHasC = append(c.classHasC, hasC[root])
		return i
	}
	total := 0
	for _, a := range q.Body {
		total += len(a.Vars)
	}
	argsFlat := make([]int, 0, total)
	c.atomRel = make([]string, len(q.Body))
	c.atomArgs = make([][]int, len(q.Body))
	for ai, a := range q.Body {
		start := len(argsFlat)
		for _, v := range a.Vars {
			argsFlat = append(argsFlat, classIdx(v))
		}
		c.atomRel[ai] = a.Rel
		c.atomArgs[ai] = argsFlat[start:len(argsFlat):len(argsFlat)]
	}
	// Equality-only variables (invalid against any schema, but the
	// canonizer is total): give them classes so encoding never panics.
	for _, e := range q.Eqs {
		classIdx(e.Left)
		if !e.Right.IsConst {
			classIdx(e.Right.Var)
		}
	}
	c.head = make([]headTerm, 0, len(q.Head))
	headClass := make([]int, len(q.Head)) // class per head position, -1 for consts
	for hi, t := range q.Head {
		if t.IsConst {
			c.head = append(c.head, headTerm{isConst: true, cnst: t.Const})
			headClass[hi] = -1
			continue
		}
		ci := classIdx(t.Var)
		c.head = append(c.head, headTerm{class: ci})
		headClass[hi] = ci
	}

	// All classes exist now; build the per-class tables over flat
	// backings (one allocation each instead of one per class).
	nc := len(c.classConst)
	c.classHeadP = make([][]int, nc)
	for hi, ci := range headClass {
		if ci >= 0 {
			c.classHeadP[ci] = append(c.classHeadP[ci], hi)
		}
	}
	occCount := make([]int, nc)
	for _, args := range c.atomArgs {
		for _, ci := range args {
			occCount[ci]++
		}
	}
	occAtomFlat := make([]int, total)
	occPosFlat := make([]int, total)
	c.occAtom = make([][]int, nc)
	c.occPos = make([][]int, nc)
	off := 0
	for ci := 0; ci < nc; ci++ {
		c.occAtom[ci] = occAtomFlat[off : off : off+occCount[ci]]
		c.occPos[ci] = occPosFlat[off : off : off+occCount[ci]]
		off += occCount[ci]
	}
	for ai, args := range c.atomArgs {
		for p, ci := range args {
			c.occAtom[ci] = append(c.occAtom[ci], ai)
			c.occPos[ci] = append(c.occPos[ci], p)
		}
	}
	c.color = make([]int, nc)
	relNames := append([]string(nil), c.atomRel...)
	sort.Strings(relNames)
	relNames = uniqStrings(relNames)
	c.relColor = make([]int, len(c.atomRel))
	for ai, r := range c.atomRel {
		c.relColor[ai] = sort.SearchStrings(relNames, r)
	}
	return c, false
}

// refine assigns renaming-invariant colors to classes by iterated
// partition refinement: the initial color is the class's constant
// binding, head positions, and (relation, position) occurrence multiset;
// each round folds in the colors of co-occurring classes until the
// partition stabilizes.
func (c *canonizer) refine() {
	// posBase makes (color, position) pairs collision-free when packed
	// into one int.
	posBase := 1
	total := 0 // variable occurrences
	for _, args := range c.atomArgs {
		if len(args) >= posBase {
			posBase = len(args) + 1
		}
		total += len(args)
	}

	// Constant bindings are the only name-bearing invariant left after
	// relColor; rank them once up front (most classes bind none).
	constRank := make([]int, len(c.color))
	var consts []string
	for ci := range c.color {
		if c.classHasC[ci] {
			consts = append(consts, c.classConst[ci].String())
		}
	}
	if len(consts) > 0 {
		sort.Strings(consts)
		consts = uniqStrings(consts)
		for ci := range c.color {
			if c.classHasC[ci] {
				constRank[ci] = 1 + sort.SearchStrings(consts, c.classConst[ci].String())
			}
		}
	}

	// Initial round: constant rank, head positions (length-prefixed so
	// the row layout is unambiguous), then the sorted (relation, position)
	// occurrence multiset.  Every round's row of a class fits in its
	// initial capacity, so all class rows share one backing array.
	classRows := make([][]int, len(c.color))
	classBacking := make([]int, 2*len(c.color)+len(c.head)+total)
	idx := make([]int, max(len(c.color), len(c.atomRel))) // rankRows scratch
	for ci := range classRows {
		n := 2 + len(c.classHeadP[ci]) + len(c.occAtom[ci])
		row := classBacking[:0:n]
		classBacking = classBacking[n:]
		row = append(row, constRank[ci], len(c.classHeadP[ci]))
		row = append(row, c.classHeadP[ci]...)
		mark := len(row)
		for k, ai := range c.occAtom[ci] {
			row = append(row, c.relColor[ai]*posBase+c.occPos[ci][k])
		}
		occ := row[mark:]
		sort.Ints(occ)
		classRows[ci] = row
	}
	distinct := rankRows(classRows, c.color, idx)
	if distinct == len(c.color) {
		return // discrete partition: colors are final
	}

	atomRows := make([][]int, len(c.atomRel))
	atomBacking := make([]int, len(c.atomRel)+total)
	for ai, args := range c.atomArgs {
		atomRows[ai], atomBacking = atomBacking[:0:1+len(args)], atomBacking[1+len(args):]
	}
	atomColor := make([]int, len(c.atomRel))
	for round := 0; round < len(c.color); round++ {
		// Atom signature: relation color then argument class colors.
		for ai, args := range c.atomArgs {
			row := atomRows[ai][:0]
			row = append(row, c.relColor[ai])
			for _, ci := range args {
				row = append(row, c.color[ci])
			}
			atomRows[ai] = row
		}
		rankRows(atomRows, atomColor, idx)
		// Class signature: own color then the sorted multiset of
		// (atom color, position) occurrences.
		for ci := range classRows {
			row := classRows[ci][:0]
			row = append(row, c.color[ci])
			mark := len(row)
			for k, ai := range c.occAtom[ci] {
				row = append(row, atomColor[ai]*posBase+c.occPos[ci][k])
			}
			occ := row[mark:]
			sort.Ints(occ)
			classRows[ci] = row
		}
		d := rankRows(classRows, c.color, idx)
		if d == distinct || d == len(c.color) {
			return
		}
		distinct = d
	}
}

// uniqStrings deduplicates a sorted slice in place.
func uniqStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// rankRows assigns each row its dense rank under lexicographic order,
// writing ranks into out (len(out) == len(rows)), and returns the number
// of distinct rows.  Equal rows share a rank, so the sort need not be
// stable.  idx is scratch space of at least len(rows).
func rankRows(rows [][]int, out, idx []int) int {
	idx = idx[:len(rows)]
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return compareIntRows(rows[a], rows[b]) })
	rank := 0
	for k, i := range idx {
		if k > 0 && compareIntRows(rows[idx[k-1]], rows[i]) != 0 {
			rank++
		}
		out[i] = rank
	}
	return rank + 1
}

func compareIntRows(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// encState is one node of the tie-break search: a partial atom order
// and variable numbering.
type encState struct {
	num  []int // class -> assigned de Bruijn number, -1 when unassigned
	next int
	used []bool
	out  []string // encoded segments so far
}

// encode produces the canonical key: the head (its order is already
// invariant), then body atoms in the lexicographically least order
// compatible with the refinement colors, numbering classes by first
// appearance.  Ties between same-colored candidates are resolved by
// bounded backtracking over full encodings; automorphic ties (stars,
// cliques) yield identical encodings on every branch, so even a budget
// cutoff returns the true canonical form for them.
func (c *canonizer) encode() (string, bool) {
	st := &encState{
		num:  make([]int, len(c.color)),
		used: make([]bool, len(c.atomRel)),
	}
	for i := range st.num {
		st.num[i] = -1
	}
	var hb strings.Builder
	hb.WriteString("H:")
	for i, h := range c.head {
		if i > 0 {
			hb.WriteByte(',')
		}
		if h.isConst {
			hb.WriteString("c" + h.cnst.String())
			continue
		}
		c.writeClass(st, h.class, &hb)
	}
	st.out = append(st.out, hb.String())

	budget := tieBreakBudget
	var best []string
	exact := c.search(st, &best, &budget)
	return strings.Join(best, "|"), exact
}

// writeClass appends the encoding of a class occurrence to b, assigning
// the next de Bruijn number on first sight (with its constant binding,
// so the equality list is fully captured by numbering plus bindings).
func (c *canonizer) writeClass(st *encState, ci int, b *strings.Builder) {
	first := st.num[ci] < 0
	if first {
		st.num[ci] = st.next
		st.next++
	}
	b.WriteByte('#')
	b.WriteString(strconv.Itoa(st.num[ci]))
	if first && c.classHasC[ci] {
		b.WriteByte('=')
		b.WriteString(c.classConst[ci].String())
	}
}

// search extends st one atom at a time, branching over minimal-key
// candidates, and records the lexicographically least complete encoding
// in best.  It returns false when the budget ran out before the branch
// space was exhausted.
//keyedeq:hot -- budgeted branch-and-bound over candidate atom orders; every canonical key pays for it
func (c *canonizer) search(st *encState, best *[]string, budget *int) bool {
	exact := true
	for {
		if len(st.out)-1 == len(c.atomRel) { // head segment + all atoms
			if *best == nil || lessSeq(st.out, *best) {
				*best = append([]string(nil), st.out...)
			}
			return exact
		}
		*budget--
		if *budget < 0 {
			exact = false
		}
		cands := c.pruneInterchangeable(st, c.minCandidates(st))
		if !exact {
			cands = cands[:1] // greedy completion once over budget
		}
		if len(cands) == 1 {
			// No branching at this step: extend the state in place (the
			// common case — refinement fully discriminates chains and
			// most irregular queries, so the whole search is one pass
			// with zero state copies).
			c.applyTo(st, cands[0])
			// Prune once the extension is worse than the best encoding.
			if *best != nil && prefixCompare(st.out, *best) > 0 {
				return exact
			}
			continue
		}
		for _, ai := range cands {
			child := c.apply(st, ai)
			// Prune branches already worse than the best known encoding.
			if *best != nil && prefixCompare(child.out, *best) > 0 {
				continue
			}
			if !c.search(child, best, budget) {
				exact = false
			}
		}
		return exact
	}
}

// unassignedBase offsets refinement colors in step-key rows so every
// assigned de Bruijn number sorts before every unassigned class — atoms
// connected to the already-encoded prefix are preferred.
const unassignedBase = 1 << 30

// stepKeyRow renders an unused atom relative to the partial numbering as
// an integer row: relation rank, then per position the assigned number
// or the offset refinement color.  The row is renaming-invariant, so the
// candidate order is too.
func (c *canonizer) stepKeyRow(st *encState, ai int, row []int) []int {
	row = append(row[:0], c.relColor[ai])
	for _, ci := range c.atomArgs[ai] {
		if st.num[ci] >= 0 {
			row = append(row, st.num[ci])
		} else {
			row = append(row, unassignedBase+c.color[ci])
		}
	}
	return row
}

// minCandidates returns the unused atoms whose step-key row is minimal.
func (c *canonizer) minCandidates(st *encState) []int {
	var bestRow, row []int
	var out []int
	for ai := range c.atomRel {
		if st.used[ai] {
			continue
		}
		row = c.stepKeyRow(st, ai, row)
		cmp := -1
		if out != nil {
			cmp = compareIntRows(row, bestRow)
		}
		switch {
		case cmp < 0:
			bestRow = append(bestRow[:0], row...)
			out = append(out[:0], ai)
		case cmp == 0:
			out = append(out, ai)
		}
	}
	return out
}

// pruneInterchangeable drops candidates whose branches are automorphic
// images of a kept candidate's branch, so exploring one suffices (and
// exactness is preserved).  All candidates share the same step-key row,
// which makes two cases cheap and sound:
//
//   - Literal duplicates: same relation and identical argument classes.
//     The child states differ only in which copy is marked used.
//   - Private atoms: every unassigned class occurs only inside the atom
//     itself.  Equal rows mean positionwise equal colors, and equal
//     colors for distinct private classes force equal constant bindings,
//     no head occurrences, and matching within-atom repetition, so
//     swapping the two atoms (with their private classes) is an
//     automorphism.  Stars and star-like fans resolve in linear time
//     because all pending leaf atoms collapse to one candidate.
func (c *canonizer) pruneInterchangeable(st *encState, cands []int) []int {
	if len(cands) < 2 {
		return cands
	}
	kept := cands[:0]
	privSeen := false
	for _, ai := range cands {
		if c.atomPrivate(st, ai) {
			if privSeen {
				continue
			}
			privSeen = true
			kept = append(kept, ai)
			continue
		}
		dup := false
		for _, aj := range kept {
			if c.sameAtom(ai, aj) {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, ai)
		}
	}
	return kept
}

// atomPrivate reports that every unassigned class of atom ai occurs in
// no other atom.
func (c *canonizer) atomPrivate(st *encState, ai int) bool {
	for _, ci := range c.atomArgs[ai] {
		if st.num[ci] >= 0 {
			continue
		}
		for _, oa := range c.occAtom[ci] {
			if oa != ai {
				return false
			}
		}
	}
	return true
}

// sameAtom reports atoms ai and aj are literally identical: same
// relation, same classes in the same positions.
func (c *canonizer) sameAtom(ai, aj int) bool {
	if c.relColor[ai] != c.relColor[aj] || len(c.atomArgs[ai]) != len(c.atomArgs[aj]) {
		return false
	}
	for p, ci := range c.atomArgs[ai] {
		if ci != c.atomArgs[aj][p] {
			return false
		}
	}
	return true
}

// applyTo emits atom ai onto st in place, assigning numbers to its
// unassigned classes left to right.
func (c *canonizer) applyTo(st *encState, ai int) {
	st.used[ai] = true
	var b strings.Builder
	b.WriteString(c.atomRel[ai])
	b.WriteByte('(')
	for p, ci := range c.atomArgs[ai] {
		if p > 0 {
			b.WriteByte(',')
		}
		c.writeClass(st, ci, &b)
	}
	b.WriteByte(')')
	st.out = append(st.out, b.String())
}

// apply emits atom ai onto a copy of st, for branching steps.
func (c *canonizer) apply(st *encState, ai int) *encState {
	child := &encState{
		num:  append([]int(nil), st.num...),
		next: st.next,
		used: append([]bool(nil), st.used...),
		out:  append([]string(nil), st.out...),
	}
	c.applyTo(child, ai)
	return child
}

// lessSeq reports a < b over encoded segment sequences.
func lessSeq(a, b []string) bool { return prefixCompare(a, b) < 0 }

// prefixCompare compares a against the first len(a) segments of b
// (segment-wise lexicographic); a shorter a equal so far compares 0.
func prefixCompare(a, b []string) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
