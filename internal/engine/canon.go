// Package engine is the batch equivalence/containment engine: it
// canonicalizes conjunctive queries to a renaming-invariant form,
// memoizes chase results and containment verdicts in a bounded sharded
// LRU keyed by the canonical pair key, and fans batches of query pairs
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
	"bytes"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

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
	c := canonizers.Get().(*canonizer)
	defer c.release()
	c.comp.Reset(q)
	if c.comp.Unsat && s != nil {
		c.comp.ResolveTypes(q, s)
	}
	return c.canonical(q, s != nil)
}

// canonical canonicalizes q from its compiled form c.comp.  resolved
// reports that c.comp was resolved and typed against the schema
// (ResolveTypes), which only an unsatisfiable query's key reads.
func (c *canonizer) canonical(q *cq.Query, resolved bool) Canonical {
	if c.comp.Unsat {
		return Canonical{Key: unsatKey(q, &c.comp, resolved), Exact: true}
	}
	c.reset(q)
	c.refine()
	key, exact := c.encode()
	return Canonical{Key: key, Exact: exact}
}

// unsatKey collapses always-empty queries: a query whose equality list
// equates two distinct constants has no answers on any database, so
// any two such queries of equal head type are equivalent.  The head
// type is read from comp, the query's compiled form, when it was
// resolved and typed against the schema.
func unsatKey(q *cq.Query, comp *cq.Compiled, resolved bool) string {
	if resolved {
		if ht, err := comp.HeadType(q); err == nil {
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
// is deterministic (no map iteration anywhere on this path).  The
// classes, their constants and each atom's class per position are the
// query's compiled form (cq.Compiled), which the canonizer keeps as its
// own scratch.
//
// Canonizers are pooled: reset sizes every table for the next query
// from the capacity earlier queries left behind, and release drops
// every reference into the query before the canonizer goes back.
type canonizer struct {
	comp     cq.Compiled
	atomRel  []string // per atom: relation name
	relColor []int    // per atom: dense rank of its relation name
	head     []headTerm
	// Per class:
	classHeadP [][]int // head positions mentioning the class
	occAtom    [][]int // per class: atom index of each occurrence
	occPos     [][]int // per class: position of each occurrence
	// color is each class's refinement color: the start of its cell in
	// order, the classes sorted by color.
	color []int

	// Scratch that reset, refine and encode overwrite before reading.
	total                   int   // body variable occurrences
	headPFlat               []int // backing of classHeadP
	occAtomFlat, occPosFlat []int // backings of occAtom and occPos
	occCount                []int
	relNames                []string
	constRank               []int
	constStr, consts        []string
	// Refinement's ordered partitions: order lists the classes by color
	// and atomOrder the atoms by relation, then by the colors of their
	// classes; atomColor is each atom's cell start in atomOrder, relStart
	// the start of each relation's block of atoms, and classRows and
	// atomRows hold the rows the two are sorted by.  changed collects the
	// classes whose color the last class step moved.  classCells lists
	// the starts of the cells the next class step sorts and relBlocks the
	// relations whose blocks the next atom step sorts; classListed and
	// relListed flag a listed one.  classStale and atomStale flag the
	// rows the last step made out of date.
	order, atomOrder       []int
	atomColor, relStart    []int
	classRows, atomRows    [][]int
	classBacking           []int
	atomBacking            []int
	changed                []int
	classCells, relBlocks  []int
	classListed, relListed []bool
	classStale, atomStale  []bool
	// Encoding: the root search state, each atom's offset in a state's
	// step-key rows, and the least complete key found so far.
	st       encState
	rowStart []int
	best     []byte
	bestEnds []int
	cands    []int // minCandidates scratch
}

// canonizers recycles canonizers across queries and goroutines.
var canonizers = sync.Pool{New: func() any { return new(canonizer) }}

// release returns c to the pool, first dropping the strings that point
// into the query text (relation names and variables).  A canonizer
// grown past cq.MaxPooledSlots variables is dropped instead, so one
// huge query cannot leave every later small one clearing its tables.
func (c *canonizer) release() {
	if c.comp.Slots() > cq.MaxPooledSlots {
		return
	}
	clear(c.atomRel)
	clear(c.relNames[:cap(c.relNames)])
	c.comp.DropNames()
	canonizers.Put(c)
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset builds, from q and its compiled form c.comp, the tables
// refinement and encoding read: the head, each class's head positions
// and occurrences, and each atom's relation color.  The query must be
// satisfiable.
func (c *canonizer) reset(q *cq.Query) {
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

// carve resizes rows to len(counts) empty rows over backing, row i with
// capacity counts[i], so appending a row's entries never reallocates.
func carve(rows [][]int, backing, counts []int) [][]int {
	rows = resize(rows, len(counts))
	off := 0
	for i, n := range counts {
		rows[i] = backing[off : off : off+n]
		off += n
	}
	return rows
}

// refine assigns renaming-invariant colors to classes by iterated
// partition refinement: the initial color is the class's constant
// binding, head positions, and (relation, position) occurrence multiset;
// each round folds in the colors of co-occurring classes until the
// partition stabilizes.
//
// The classes are kept as an ordered partition: order lists them by
// color, each cell is a run of one color, and a class's color is its
// cell's start in order.  A round sorts a cell of two or more classes
// by the (atom color, position) multisets of its classes and splits it
// where they change.  A cell splits in place and every other class
// keeps its color, so the classes stay in the order of the dense ranks
// that ranking every class's row afresh each round gives: that row
// leads with the class's previous color.  An atom's row, its relation
// and then the colors of its classes, leads with no earlier color, and
// a split of the classes at one position can reverse the order of two
// atoms an earlier split at a later position set.  So the atoms of a
// relation are one block, re-sorted by their whole rows whenever one of
// them holds a class whose color moved, and an atom's color is the
// start of its run of equal rows: the order of the dense ranks again.
// After the first round only the class cells holding a class of an
// atom whose color moved are sorted again, since no other class's row
// changed.
//
//keyedeq:hot -- color refinement runs once per canonicalized query; its rounds reuse the canonizer's scratch
func (c *canonizer) refine() {
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

	// Initial partition: constant rank, head positions (length-prefixed
	// so the row layout is unambiguous), then the sorted (relation,
	// position) occurrence multiset, all classes sorted as one cell.
	// Every later row of a class fits in its initial capacity, so all
	// class rows share one backing array.
	c.classRows = resize(c.classRows, nc)
	c.classBacking = resize(c.classBacking, 2*nc+len(c.head)+total)
	backing := c.classBacking
	c.order = resize(c.order, nc)
	for ci := range c.classRows {
		c.order[ci] = ci
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
	cells := splitCell(c.classRows, c.order, 0, c.color)
	if cells == nc {
		return // discrete partition: colors are final
	}

	// Initial atom partition: every atom's row, relation color then the
	// colors of its classes, all atoms sorted as one cell, which puts
	// each relation's atoms in one block.
	na := len(c.atomRel)
	c.atomRows = resize(c.atomRows, na)
	c.atomBacking = resize(c.atomBacking, na+total)
	backing = c.atomBacking
	c.atomOrder = resize(c.atomOrder, na)
	for ai, args := range c.comp.Args {
		c.atomOrder[ai] = ai
		c.atomRows[ai], backing = backing[:0:1+len(args)], backing[1+len(args):]
		c.fillAtomRow(ai)
	}
	c.atomColor = resize(c.atomColor, na)
	splitCell(c.atomRows, c.atomOrder, 0, c.atomColor)
	nr := len(c.relNames)
	c.relStart = resize(c.relStart, nr+1)
	for _, r := range c.relColor {
		c.relStart[r+1]++
	}
	for r := range nr {
		c.relStart[r+1] += c.relStart[r]
	}
	c.classListed = resize(c.classListed, nc)
	c.relListed = resize(c.relListed, nr)
	c.atomStale = resize(c.atomStale, na)

	// The first class step sorts every cell, by rows it builds for every
	// class; a later one only the cells holding a class of an atom whose
	// color moved, and rebuilds only those classes' rows: every other
	// row is the one its cell was last sorted by.
	c.classCells = c.classCells[:0]
	for lo := 0; lo < nc; lo = cellEnd(c.order, c.color, lo) {
		c.classCells = append(c.classCells, lo)
	}
	c.classStale = resize(c.classStale, nc)
	for ci := range c.classStale {
		c.classStale[ci] = true
	}
	for {
		// Class step: sort each listed cell of two or more classes by
		// its classes' (atom color, position) occurrence multisets.
		c.changed = c.changed[:0]
		for _, lo := range c.classCells {
			c.classListed[lo] = false
			hi := cellEnd(c.order, c.color, lo)
			if hi-lo < 2 {
				continue
			}
			for _, ci := range c.order[lo:hi] {
				if !c.classStale[ci] {
					continue
				}
				c.classStale[ci] = false
				row := c.classRows[ci][:0]
				for k, ai := range c.occAtom[ci] {
					row = append(row, c.atomColor[ai]*posBase+c.occPos[ci][k])
				}
				slices.Sort(row)
				c.classRows[ci] = row
			}
			if n := splitCell(c.classRows, c.order[lo:hi], lo, c.color); n > 1 {
				cells += n - 1
				for _, ci := range c.order[lo:hi] {
					if c.color[ci] != lo {
						c.changed = append(c.changed, ci)
					}
				}
			}
		}
		if len(c.changed) == 0 || cells == nc {
			return
		}
		// Atom step: re-sort the block of every relation with an atom of
		// a class whose color moved, and list the class cells of the
		// atoms whose color moved for the next class step.
		c.relBlocks = c.relBlocks[:0]
		for _, ci := range c.changed {
			for _, ai := range c.occAtom[ci] {
				c.atomStale[ai] = true
				if r := c.relColor[ai]; !c.relListed[r] {
					c.relListed[r] = true
					c.relBlocks = append(c.relBlocks, r)
				}
			}
		}
		c.classCells = c.classCells[:0]
		for _, r := range c.relBlocks {
			c.relListed[r] = false
			lo := c.relStart[r]
			block := c.atomOrder[lo:c.relStart[r+1]]
			for _, ai := range block {
				if c.atomStale[ai] {
					c.atomStale[ai] = false
					c.fillAtomRow(ai)
				}
			}
			sortCell(c.atomRows, block)
			run := lo
			for k, ai := range block {
				if k > 0 && compareIntRows(c.atomRows[block[k-1]], c.atomRows[ai]) != 0 {
					run = lo + k
				}
				if c.atomColor[ai] == run {
					continue
				}
				c.atomColor[ai] = run
				for _, ci := range c.comp.Args[ai] {
					c.classStale[ci] = true
					if clo := c.color[ci]; !c.classListed[clo] {
						c.classListed[clo] = true
						c.classCells = append(c.classCells, clo)
					}
				}
			}
		}
	}
}

// fillAtomRow rewrites atom ai's row: its relation color, then the
// color of each of its classes.
func (c *canonizer) fillAtomRow(ai int) {
	row := append(c.atomRows[ai][:0], c.relColor[ai])
	for _, ci := range c.comp.Args[ai] {
		row = append(row, c.color[ci])
	}
	c.atomRows[ai] = row
}

// cellEnd returns the end of the cell starting at lo in order, whose
// members carry the color lo.
func cellEnd(order, color []int, lo int) int {
	hi := lo + 1
	for hi < len(order) && color[order[hi]] == lo {
		hi++
	}
	return hi
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

// splitCell sorts cell, the members of one cell starting at start, by
// their rows and splits it where the rows change: each member's color
// (written into color) becomes the start of its run of equal rows.  It
// returns the number of runs.
//
//keyedeq:hot -- sorts every cell a refinement round splits
func splitCell(rows [][]int, cell []int, start int, color []int) int {
	if len(cell) == 0 {
		return 0
	}
	sortCell(rows, cell)
	n, run := 1, start
	color[cell[0]] = start
	for k := 1; k < len(cell); k++ {
		if compareIntRows(rows[cell[k-1]], rows[cell[k]]) != 0 {
			n, run = n+1, start+k
		}
		color[cell[k]] = run
	}
	return n
}

// smallSort bounds the cells sortCell orders by insertion sort, which
// is quadratic: the first round of a long query puts most of its
// classes in one cell, and a relation's atoms are one block.
const smallSort = 20

// sortCell orders a cell of row indexes by their rows.  Insertion sort
// compares the rows directly, where slices.SortFunc calls a closure for
// every comparison; on the batch-dedup workload, on a 2-vCPU VM, that
// raised ops_per_s by about 9%.
func sortCell(rows [][]int, cell []int) {
	if len(cell) > smallSort {
		slices.SortFunc(cell, func(a, b int) int { return compareIntRows(rows[a], rows[b]) })
		return
	}
	for k := 1; k < len(cell); k++ {
		i, row := cell[k], rows[cell[k]]
		j := k
		for ; j > 0 && compareIntRows(rows[cell[j-1]], row) > 0; j-- {
			cell[j] = cell[j-1]
		}
		cell[j] = i
	}
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
// and variable numbering, each unused atom's step-key row under that
// numbering, and the key so far.
type encState struct {
	num  []int // class -> assigned de Bruijn number, -1 when unassigned
	next int
	used []bool
	// rows holds atom ai's step-key row at rows[rowStart[ai]:rowStart[ai+1]]:
	// its relation color, then per position the class's number or, while
	// the class has none, unassignedBase plus its color.  Numbering a
	// class rewrites the rows of the atoms it occurs in, and only those.
	rows []int
	// key holds the encoded segments, joined by '|'; ends[i] is where
	// segment i ends.  Segments compare one by one, as strings.
	key  []byte
	ends []int
}

// segment returns segment i of a key whose segments end at ends.
func segment(key []byte, ends []int, i int) []byte {
	lo := 0
	if i > 0 {
		lo = ends[i-1] + 1
	}
	return key[lo:ends[i]]
}

// encode produces the canonical key: the head (its order is already
// invariant), then body atoms in the lexicographically least order
// compatible with the refinement colors, numbering classes by first
// appearance.  Ties between same-colored candidates are resolved by
// bounded backtracking over full encodings; automorphic ties (stars,
// cliques) yield identical encodings on every branch, so even a budget
// cutoff returns the true canonical form for them.
//
//keyedeq:hot -- the tie-break search behind every canonical key; the root state lives in the pooled canonizer
func (c *canonizer) encode() (string, bool) {
	st := &c.st
	st.num = resize(st.num, len(c.color))
	st.used = resize(st.used, len(c.atomRel))
	st.next = 0
	for i := range st.num {
		st.num[i] = -1
	}
	c.rowStart = resize(c.rowStart, len(c.atomRel)+1)
	st.rows = resize(st.rows, len(c.atomRel)+c.total)
	off := 0
	for ai, args := range c.comp.Args {
		c.rowStart[ai] = off
		st.rows[off] = c.relColor[ai]
		for p, ci := range args {
			st.rows[off+1+p] = unassignedBase + c.color[ci]
		}
		off += 1 + len(args)
	}
	c.rowStart[len(c.atomRel)] = off

	st.key = append(st.key[:0], "H:"...)
	for i, h := range c.head {
		if i > 0 {
			st.key = append(st.key, ',')
		}
		if h.isConst {
			st.key = h.cnst.Append(append(st.key, 'c'))
			continue
		}
		c.writeClass(st, h.class)
	}
	st.ends = append(st.ends[:0], len(st.key))

	budget := tieBreakBudget
	c.best, c.bestEnds = c.best[:0], c.bestEnds[:0]
	exact := c.search(st, 0, &budget)
	return string(c.best), exact
}

// writeClass appends the encoding of a class occurrence to st's key,
// assigning the next de Bruijn number on first sight (with its constant
// binding, so the equality list is fully captured by numbering plus
// bindings) and writing it into the step-key rows of the class's atoms.
func (c *canonizer) writeClass(st *encState, ci int) {
	first := st.num[ci] < 0
	if first {
		st.num[ci] = st.next
		st.next++
		for k, ai := range c.occAtom[ci] {
			st.rows[c.rowStart[ai]+1+c.occPos[ci][k]] = st.num[ci]
		}
	}
	st.key = strconv.AppendInt(append(st.key, '#'), int64(st.num[ci]), 10)
	if first && c.comp.HasConst[ci] {
		st.key = c.comp.Const[ci].Append(append(st.key, '='))
	}
}

// search extends st one atom at a time, branching over minimal-key
// candidates, and records the lexicographically least complete encoding
// in c.best (empty until the first completes).  cmp is st's comparison
// with c.best so far, segment by segment (meaningless while c.best is
// empty); c.best changes only inside branch, after which search
// returns, so each in-place step compares only its new segment.  It
// returns false when the budget ran out before the branch space was
// exhausted.
//
//keyedeq:hot -- budgeted branch-and-bound over candidate atom orders; every canonical key pays for it
func (c *canonizer) search(st *encState, cmp int, budget *int) bool {
	exact := true
	for {
		if len(st.ends)-1 == len(c.atomRel) { // head segment + all atoms
			if len(c.bestEnds) == 0 || cmp < 0 {
				c.best = append(c.best[:0], st.key...)
				c.bestEnds = append(c.bestEnds[:0], st.ends...)
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
			if len(c.bestEnds) > 0 && cmp == 0 {
				i := len(st.ends) - 1
				cmp = bytes.Compare(segment(st.key, st.ends, i), segment(c.best, c.bestEnds, i))
				if cmp > 0 {
					return exact
				}
			}
			continue
		}
		return c.branch(st, cands, budget) && exact
	}
}

// branch searches each candidate of a branching step from its own copy
// of st.  The recursion refills minCandidates' scratch, so the
// candidate list is copied first.
func (c *canonizer) branch(st *encState, cands []int, budget *int) bool {
	cands = append(make([]int, 0, len(cands)), cands...)
	exact := true
	for _, ai := range cands {
		child := c.apply(st, ai)
		// Prune branches already worse than the best known encoding.
		cmp := 0
		if len(c.bestEnds) > 0 {
			if cmp = c.compareBest(child); cmp > 0 {
				continue
			}
		}
		if !c.search(child, cmp, budget) {
			exact = false
		}
	}
	return exact
}

// compareBest compares st's segments with the first as many of c.best,
// one by one as strings.
func (c *canonizer) compareBest(st *encState) int {
	for i := range st.ends {
		if i >= len(c.bestEnds) {
			return 1
		}
		if cmp := bytes.Compare(segment(st.key, st.ends, i), segment(c.best, c.bestEnds, i)); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// unassignedBase offsets refinement colors in step-key rows so every
// assigned de Bruijn number sorts before every unassigned class — atoms
// connected to the already-encoded prefix are preferred.
const unassignedBase = 1 << 30

// minCandidates returns the unused atoms whose step-key row is minimal.
// The result lives in c's scratch until the next call.
//
//keyedeq:hot -- runs once per search step; it compares the rows the state keeps and collects into the canonizer's scratch
func (c *canonizer) minCandidates(st *encState) []int {
	out := c.cands[:0]
	var best []int
	for ai := range c.atomRel {
		if st.used[ai] {
			continue
		}
		row := st.rows[c.rowStart[ai]:c.rowStart[ai+1]]
		cmp := -1
		if len(out) > 0 {
			cmp = compareIntRows(row, best)
		}
		switch {
		case cmp < 0:
			best = row
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
func (c *canonizer) sameAtom(ai, aj int) bool {
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

// applyTo emits atom ai onto st in place as a new segment, assigning
// numbers to its unassigned classes left to right.
func (c *canonizer) applyTo(st *encState, ai int) {
	st.used[ai] = true
	st.key = append(append(st.key, '|'), c.atomRel[ai]...)
	st.key = append(st.key, '(')
	for p, ci := range c.comp.Args[ai] {
		if p > 0 {
			st.key = append(st.key, ',')
		}
		c.writeClass(st, int(ci))
	}
	st.key = append(st.key, ')')
	st.ends = append(st.ends, len(st.key))
}

// apply emits atom ai onto a copy of st, for branching steps.
func (c *canonizer) apply(st *encState, ai int) *encState {
	child := &encState{
		num:  append([]int(nil), st.num...),
		next: st.next,
		used: append([]bool(nil), st.used...),
		rows: append([]int(nil), st.rows...),
		key:  append([]byte(nil), st.key...),
		ends: append([]int(nil), st.ends...),
	}
	c.applyTo(child, ai)
	return child
}
