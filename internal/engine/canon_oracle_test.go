package engine

// This file keeps the canonizer's refinement and tie-break encoder as
// they were before the ordered partition and the incremental encoder
// replaced them: dense-rank refinement over every class and atom each
// round (rankRows), and an encoder that renders every unused atom's
// step-key row at every step and one string per atom.  They are the
// oracle of TestCanonicalKernelMatchesOracle and FuzzCanonicalKernel,
// kept verbatim but for the oracle prefix on their names.

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"keyedeq/internal/cq"
)

// oracleCanonicalize canonicalizes q with the oracle kernel and returns
// its key, its Exact flag and the final refinement colors (dense ranks,
// nil for an unsatisfiable query).
func oracleCanonicalize(q *cq.Query) (string, bool, []int) {
	c := new(oracleCanonizer)
	c.comp.Reset(q)
	if c.comp.Unsat {
		return "", true, nil
	}
	c.reset(q)
	c.refine()
	key, exact := c.encode()
	return key, exact, c.color
}

// oracleCanonizer holds the normalized query during canonicalization.  All
// state is slice-indexed by dense class and atom numbers so every loop
// is deterministic (no map iteration anywhere on this path).  The
// classes, their constants and each atom's class per position are the
// query's compiled form (cq.Compiled), which the oracleCanonizer keeps as its
// own scratch.
//
// Unlike the canonizer it is never pooled: oracleCanonicalize builds
// one per query.
type oracleCanonizer struct {
	comp     cq.Compiled
	atomRel  []string // per atom: relation name
	relColor []int    // per atom: dense rank of its relation name
	head     []headTerm
	// Per class:
	classHeadP [][]int // head positions mentioning the class
	occAtom    [][]int // per class: atom index of each occurrence
	occPos     [][]int // per class: position of each occurrence
	color      []int   // current refinement color per class

	// Scratch that reset, refine and encode overwrite before reading.
	total                   int   // body variable occurrences
	headPFlat               []int // backing of classHeadP
	occAtomFlat, occPosFlat []int // backings of occAtom and occPos
	occCount                []int
	relNames                []string
	constRank               []int
	constStr, consts        []string
	classRows, atomRows     [][]int
	classBacking            []int
	atomBacking, atomColor  []int
	idx, cellEnd            []int // rankRows scratch
	st                      oracleEncState
	best                    []string
	row, bestRow, cands     []int // minCandidates scratch
}

// reset builds, from q and its compiled form c.comp, the tables
// refinement and encoding read: the head, each class's head positions
// and occurrences, and each atom's relation color.  The query must be
// satisfiable.
func (c *oracleCanonizer) reset(q *cq.Query) {
	comp := &c.comp
	c.atomRel = resize(c.atomRel, len(q.Body))
	for ai, a := range q.Body {
		c.atomRel[ai] = a.Rel
	}
	c.head = c.head[:0]
	for hi, ci := range comp.Head {
		if ci < 0 {
			c.head = append(c.head, headTerm{isConst: true, cnst: q.Head[hi].Const})
			continue
		}
		c.head = append(c.head, headTerm{class: int(ci)})
	}

	// Carve the per-class tables from flat backings, counting first so
	// each class's run is exactly sized.
	nc := comp.NumClasses()
	c.occCount = resize(c.occCount, nc)
	for _, ci := range comp.Head {
		if ci >= 0 {
			c.occCount[ci]++
		}
	}
	c.headPFlat = resize(c.headPFlat, len(q.Head))
	c.classHeadP = carve(c.classHeadP, c.headPFlat, c.occCount)
	for hi, ci := range comp.Head {
		if ci >= 0 {
			c.classHeadP[ci] = append(c.classHeadP[ci], hi)
		}
	}
	clear(c.occCount)
	c.total = 0
	for _, args := range comp.Args {
		c.total += len(args)
		for _, ci := range args {
			c.occCount[ci]++
		}
	}
	c.occAtomFlat = resize(c.occAtomFlat, c.total)
	c.occPosFlat = resize(c.occPosFlat, c.total)
	c.occAtom = carve(c.occAtom, c.occAtomFlat, c.occCount)
	c.occPos = carve(c.occPos, c.occPosFlat, c.occCount)
	for ai, args := range comp.Args {
		for p, ci := range args {
			c.occAtom[ci] = append(c.occAtom[ci], ai)
			c.occPos[ci] = append(c.occPos[ci], p)
		}
	}
	c.color = resize(c.color, nc)
	c.relNames = append(c.relNames[:0], c.atomRel...)
	sort.Strings(c.relNames)
	c.relNames = uniqStrings(c.relNames)
	c.relColor = resize(c.relColor, len(c.atomRel))
	for ai, r := range c.atomRel {
		c.relColor[ai] = sort.SearchStrings(c.relNames, r)
	}
}

// refine assigns renaming-invariant colors to classes by iterated
// partition refinement: the initial color is the class's constant
// binding, head positions, and (relation, position) occurrence multiset;
// each round folds in the colors of co-occurring classes until the
// partition stabilizes.
func (c *oracleCanonizer) refine() {
	// posBase makes (color, position) pairs collision-free when packed
	// into one int.
	posBase := 1
	total := c.total
	for _, args := range c.comp.Args {
		if len(args) >= posBase {
			posBase = len(args) + 1
		}
	}

	// Constant bindings are the only name-bearing invariant left after
	// relColor; rank them once up front (most classes bind none) by
	// their rendered text.
	nc := len(c.color)
	c.constRank = resize(c.constRank, nc)
	c.constStr = resize(c.constStr, nc)
	c.consts = c.consts[:0]
	for ci := range c.color {
		if c.comp.HasConst[ci] {
			c.constStr[ci] = c.comp.Const[ci].String()
			c.consts = append(c.consts, c.constStr[ci])
		}
	}
	if len(c.consts) > 0 {
		sort.Strings(c.consts)
		c.consts = uniqStrings(c.consts)
		for ci := range c.color {
			if c.comp.HasConst[ci] {
				c.constRank[ci] = 1 + sort.SearchStrings(c.consts, c.constStr[ci])
			}
		}
	}

	// Initial round: constant rank, head positions (length-prefixed so
	// the row layout is unambiguous), then the sorted (relation, position)
	// occurrence multiset.  Every round's row of a class fits in its
	// initial capacity, so all class rows share one backing array.
	c.classRows = resize(c.classRows, nc)
	c.classBacking = resize(c.classBacking, 2*nc+len(c.head)+total)
	backing := c.classBacking
	for ci := range c.classRows {
		n := 2 + len(c.classHeadP[ci]) + len(c.occAtom[ci])
		row := backing[:0:n]
		backing = backing[n:]
		row = append(row, c.constRank[ci], len(c.classHeadP[ci]))
		row = append(row, c.classHeadP[ci]...)
		mark := len(row)
		for k, ai := range c.occAtom[ci] {
			row = append(row, c.relColor[ai]*posBase+c.occPos[ci][k])
		}
		slices.Sort(row[mark:])
		c.classRows[ci] = row
	}
	distinct := c.rankRows(c.classRows, len(c.consts)+1, c.color)
	if distinct == nc {
		return // discrete partition: colors are final
	}

	c.atomRows = resize(c.atomRows, len(c.atomRel))
	c.atomBacking = resize(c.atomBacking, len(c.atomRel)+total)
	backing = c.atomBacking
	for ai, args := range c.comp.Args {
		c.atomRows[ai], backing = backing[:0:1+len(args)], backing[1+len(args):]
	}
	c.atomColor = resize(c.atomColor, len(c.atomRel))
	for round := 0; round < nc; round++ {
		// Atom signature: relation color then argument class colors.
		for ai, args := range c.comp.Args {
			row := c.atomRows[ai][:0]
			row = append(row, c.relColor[ai])
			for _, ci := range args {
				row = append(row, c.color[ci])
			}
			c.atomRows[ai] = row
		}
		c.rankRows(c.atomRows, len(c.relNames), c.atomColor)
		// Class signature: own color then the sorted multiset of
		// (atom color, position) occurrences.
		for ci := range c.classRows {
			row := c.classRows[ci][:0]
			row = append(row, c.color[ci])
			mark := len(row)
			for k, ai := range c.occAtom[ci] {
				row = append(row, c.atomColor[ai]*posBase+c.occPos[ci][k])
			}
			slices.Sort(row[mark:])
			c.classRows[ci] = row
		}
		d := c.rankRows(c.classRows, distinct, c.color)
		if d == distinct || d == nc {
			return
		}
		distinct = d
	}
}

// rankRows assigns each row its dense rank under lexicographic order,
// writing ranks into out (len(out) == len(rows)), and returns the number
// of distinct rows.  Every row refine ranks leads with a small dense
// rank — a constant rank, a relation color or the previous round's
// color — so each row must be nonempty with row[0] in [0, lead).  One
// counting pass then orders the rows by their leads into cells, and
// only a cell of two or more rows compares tails.
func (c *oracleCanonizer) rankRows(rows [][]int, lead int, out []int) int {
	end := resize(c.cellEnd, lead)
	for _, r := range rows {
		end[r[0]]++
	}
	off := 0
	for v, n := range end {
		end[v] = off
		off += n
	}
	if cap(c.idx) < len(rows) {
		c.idx = make([]int, len(rows))
	}
	idx := c.idx[:len(rows)]
	for i, r := range rows {
		idx[end[r[0]]] = i
		end[r[0]]++
	}
	c.cellEnd = end // end[v] is now where cell v ends
	rank, lo := -1, 0
	for _, hi := range end {
		if hi == lo {
			continue
		}
		cell := idx[lo:hi]
		lo = hi
		if len(cell) > 1 {
			oracleSortTails(rows, cell)
		}
		rank++
		out[cell[0]] = rank
		for k := 1; k < len(cell); k++ {
			if oracleCompareIntRows(rows[cell[k-1]][1:], rows[cell[k]][1:]) != 0 {
				rank++
			}
			out[cell[k]] = rank
		}
	}
	return rank + 1
}

// oracleSmallSort bounds the cells oracleSortTails orders by insertion sort, which
// is quadratic: the first class round of a long query puts most of its
// classes in one cell.  On the E1 corpus 96% of the cells oracleSortTails
// orders hold at most 20 rows; the rest, all in the wide family, hold
// 21 to 64.
const oracleSmallSort = 20

// oracleSortTails orders a cell of row indexes by the tails of their rows.
// Insertion sort compares the rows directly, where slices.SortFunc
// calls a closure for every comparison; on the batch-dedup workload,
// on a 2-vCPU VM, that raised ops_per_s by about 9%.
func oracleSortTails(rows [][]int, cell []int) {
	if len(cell) > oracleSmallSort {
		slices.SortFunc(cell, func(a, b int) int { return oracleCompareIntRows(rows[a][1:], rows[b][1:]) })
		return
	}
	for k := 1; k < len(cell); k++ {
		i, tail := cell[k], rows[cell[k]][1:]
		j := k
		for ; j > 0 && oracleCompareIntRows(rows[cell[j-1]][1:], tail) > 0; j-- {
			cell[j] = cell[j-1]
		}
		cell[j] = i
	}
}

func oracleCompareIntRows(a, b []int) int {
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

// oracleEncState is one node of the tie-break search: a partial atom order
// and variable numbering.
type oracleEncState struct {
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
func (c *oracleCanonizer) encode() (string, bool) {
	st := &c.st
	st.num = resize(st.num, len(c.color))
	st.used = resize(st.used, len(c.atomRel))
	st.next = 0
	st.out = st.out[:0]
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
			hb.WriteByte('c')
			hb.WriteString(h.cnst.String())
			continue
		}
		c.writeClass(st, h.class, &hb)
	}
	st.out = append(st.out, hb.String())

	budget := tieBreakBudget
	c.best = c.best[:0]
	exact := c.search(st, &budget)
	return strings.Join(c.best, "|"), exact
}

// writeClass appends the encoding of a class occurrence to b, assigning
// the next de Bruijn number on first sight (with its constant binding,
// so the equality list is fully captured by numbering plus bindings).
func (c *oracleCanonizer) writeClass(st *oracleEncState, ci int, b *strings.Builder) {
	first := st.num[ci] < 0
	if first {
		st.num[ci] = st.next
		st.next++
	}
	b.WriteByte('#')
	b.WriteString(strconv.Itoa(st.num[ci]))
	if first && c.comp.HasConst[ci] {
		b.WriteByte('=')
		b.WriteString(c.comp.Const[ci].String())
	}
}

// search extends st one atom at a time, branching over minimal-key
// candidates, and records the lexicographically least complete encoding
// in c.best (empty until the first completes).  It returns false when
// the budget ran out before the branch space was exhausted.
func (c *oracleCanonizer) search(st *oracleEncState, budget *int) bool {
	exact := true
	for {
		if len(st.out)-1 == len(c.atomRel) { // head segment + all atoms
			if len(c.best) == 0 || oracleLessSeq(st.out, c.best) {
				c.best = append(c.best[:0], st.out...)
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
			if len(c.best) > 0 && oraclePrefixCompare(st.out, c.best) > 0 {
				return exact
			}
			continue
		}
		return c.branch(st, cands, budget) && exact
	}
}

// branch searches each candidate of a branching step from its own copy
// of st.  The recursion refills minCandidates' scratch, so the
// candidate list is copied first.
func (c *oracleCanonizer) branch(st *oracleEncState, cands []int, budget *int) bool {
	cands = append(make([]int, 0, len(cands)), cands...)
	exact := true
	for _, ai := range cands {
		child := c.apply(st, ai)
		// Prune branches already worse than the best known encoding.
		if len(c.best) > 0 && oraclePrefixCompare(child.out, c.best) > 0 {
			continue
		}
		if !c.search(child, budget) {
			exact = false
		}
	}
	return exact
}

// oracleUnassignedBase offsets refinement colors in step-key rows so every
// assigned de Bruijn number sorts before every unassigned class — atoms
// connected to the already-encoded prefix are preferred.
const oracleUnassignedBase = 1 << 30

// stepKeyRow renders an unused atom relative to the partial numbering as
// an integer row: relation rank, then per position the assigned number
// or the offset refinement color.  The row is renaming-invariant, so the
// candidate order is too.
func (c *oracleCanonizer) stepKeyRow(st *oracleEncState, ai int, row []int) []int {
	row = append(row[:0], c.relColor[ai])
	for _, ci := range c.comp.Args[ai] {
		if st.num[ci] >= 0 {
			row = append(row, st.num[ci])
		} else {
			row = append(row, oracleUnassignedBase+c.color[ci])
		}
	}
	return row
}

// minCandidates returns the unused atoms whose step-key row is minimal.
// The result lives in c's scratch until the next call.
func (c *oracleCanonizer) minCandidates(st *oracleEncState) []int {
	out := c.cands[:0]
	for ai := range c.atomRel {
		if st.used[ai] {
			continue
		}
		c.row = c.stepKeyRow(st, ai, c.row)
		cmp := -1
		if len(out) > 0 {
			cmp = oracleCompareIntRows(c.row, c.bestRow)
		}
		switch {
		case cmp < 0:
			c.bestRow = append(c.bestRow[:0], c.row...)
			out = append(out[:0], ai)
		case cmp == 0:
			out = append(out, ai)
		}
	}
	c.cands = out
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
func (c *oracleCanonizer) pruneInterchangeable(st *oracleEncState, cands []int) []int {
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
func (c *oracleCanonizer) atomPrivate(st *oracleEncState, ai int) bool {
	for _, ci := range c.comp.Args[ai] {
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
func (c *oracleCanonizer) sameAtom(ai, aj int) bool {
	args, other := c.comp.Args[ai], c.comp.Args[aj]
	if c.relColor[ai] != c.relColor[aj] || len(args) != len(other) {
		return false
	}
	for p, ci := range args {
		if ci != other[p] {
			return false
		}
	}
	return true
}

// applyTo emits atom ai onto st in place, assigning numbers to its
// unassigned classes left to right.
func (c *oracleCanonizer) applyTo(st *oracleEncState, ai int) {
	st.used[ai] = true
	var b strings.Builder
	b.WriteString(c.atomRel[ai])
	b.WriteByte('(')
	for p, ci := range c.comp.Args[ai] {
		if p > 0 {
			b.WriteByte(',')
		}
		c.writeClass(st, int(ci), &b)
	}
	b.WriteByte(')')
	st.out = append(st.out, b.String())
}

// apply emits atom ai onto a copy of st, for branching steps.
func (c *oracleCanonizer) apply(st *oracleEncState, ai int) *oracleEncState {
	child := &oracleEncState{
		num:  append([]int(nil), st.num...),
		next: st.next,
		used: append([]bool(nil), st.used...),
		out:  append([]string(nil), st.out...),
	}
	c.applyTo(child, ai)
	return child
}

// oracleLessSeq reports a < b over encoded segment sequences.
func oracleLessSeq(a, b []string) bool { return oraclePrefixCompare(a, b) < 0 }

// oraclePrefixCompare compares a against the first len(a) segments of b
// (segment-wise lexicographic); a shorter a equal so far compares 0.
func oraclePrefixCompare(a, b []string) int {
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
