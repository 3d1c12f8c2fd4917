package cq

import (
	"context"

	"keyedeq/internal/instance"
	"keyedeq/internal/obs"
	"keyedeq/internal/value"
)

// This file is the streamed homomorphism-search runtime: the plan's
// steps become a pipeline of composable streaming operators over a
// frozen (interned) view, on the ID core it shares with the dense scan
// (idcore.go) —
//
//   - scan: positional cursor over a FrozenRelation's rows;
//   - indexed lookup: cursor over the row list of a pre-sized hash
//     index bucket keyed by the step's bound positions;
//   - join/selection: bindRow, which extends the dense class binding
//     with a candidate row (hash-join probe on the key positions plus
//     residual equality selection on repeated classes) and unwinds by
//     mark on backtrack;
//   - projection: the witness decode at the return boundary, where IDs
//     turn back into surface values.
//
// Each pipeline depth is one open cursor; the driver pulls the next
// candidate from the deepest cursor, so item A's depth-3 work never
// waits on item B's depth-1 work and nothing is materialized beyond
// the indexes.  The same driver serves the decision search (stop at
// the first full match) and Eval's enumeration (a leaf callback per
// full match).  The operator contracts are pinned in DESIGN.md §15.
//
// Candidates are enumerated in row order (hash buckets are filled in
// row order) and a node is counted for every candidate pulled, before
// bindRow, under the cancelCheckMask polling contract.  The adaptive
// search's differential wall pins the pipeline to the naive oracle's
// verdicts, and its witnesses to VerifyHomomorphism.

// streamIndex is one hash index shared by the plan steps of an index
// slot.  A key resolves to a dense bucket id — single-position keys
// hash the value.ID itself, wider keys the encoded byte-string via the
// compiler's zero-alloc inline string(bytes) probe — and the bucket's
// row list lives in one flat CSR layout: bucket b is
// rows[starts[b]:starts[b+1]], filled in row order.  The flat row array
// replaces the per-key append chains a map of slices would grow one
// realloc at a time.
//
// A slot keeps its maps and arrays from one search to the next: built
// is reset per search, and the build clears the map it fills and
// overwrites the rest, so a search allocates only when its relation
// outgrows what the slot held before.
type streamIndex struct {
	built  bool
	oneIDs map[value.ID]int32
	keyIDs map[string]int32
	// rowBid is the build's scratch: each row's bucket id.
	rowBid []int32
	starts []int32
	rows   []int32
}

// bucket returns bucket bid's row list, in row order.
func (idx *streamIndex) bucket(bid int32) []int32 {
	return idx.rows[idx.starts[bid]:idx.starts[bid+1]]
}

// stepCursor is one open operator of the pipeline: a positional scan
// (indexed == false, positions [pos, n)) or an indexed lookup over a
// bucket's row list.
type stepCursor struct {
	rows    []int32
	pos     int
	n       int
	indexed bool
}

// streamSearcher carries the mutable state of one streamed search: the
// shared ID-search core plus the hash indexes and the cursor stack of
// the pipeline driver.  It lives in the core (idSearchCore.stream), so
// its tables are pooled with it.
type streamSearcher struct {
	*idSearchCore
	plan *searchPlan
	idx  []streamIndex
	// keyBuf is the reusable scratch for wide-key encoding, and next the
	// index build's placement cursor per bucket.
	keyBuf []byte
	next   []int32
	// cursors and marks hold one open cursor and one addedStack mark
	// per pipeline depth, sized to the widest component.
	cursors []stepCursor
	marks   []int
}

// newStreamSearcher resets the core's pipeline state for the search of
// plan, whose pins the core holds: one unbuilt index slot per plan slot
// and one cursor and mark per depth of the widest component.
func newStreamSearcher(s *idSearchCore, plan *searchPlan) *streamSearcher {
	maxSteps := 0
	for ci := range plan.comps {
		if n := len(plan.comps[ci].steps); n > maxSteps {
			maxSteps = n
		}
	}
	ss := &s.stream
	ss.idSearchCore, ss.plan = s, plan
	if cap(ss.idx) < plan.numSlots {
		ss.idx = append(ss.idx[:cap(ss.idx)], make([]streamIndex, plan.numSlots-cap(ss.idx))...)
	}
	ss.idx = ss.idx[:plan.numSlots]
	for i := range ss.idx {
		ss.idx[i].built = false
	}
	ss.cursors = resize(ss.cursors, maxSteps)
	ss.marks = resize(ss.marks, maxSteps)
	return ss
}

// drop ends the search: it releases the core and the plan and the rows
// the cursors point into, and empties every index slot grown past
// MaxPooledSlots rows, so the pool keeps only tables of bounded size.
func (ss *streamSearcher) drop() {
	ss.idSearchCore, ss.plan = nil, nil
	clear(ss.cursors)
	idx := ss.idx[:cap(ss.idx)]
	for i := range idx {
		if cap(idx[i].rowBid) > MaxPooledSlots {
			idx[i] = streamIndex{}
		}
	}
	if cap(ss.next) > MaxPooledSlots {
		ss.next = nil
	}
}

// appendIDKey encodes one ID into the wide-key scratch buffer.
func appendIDKey(b []byte, id value.ID) []byte {
	return append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

// buildIndex fills the step's hash index slot; false means the fill
// was cancelled mid-scan, leaving the slot unbuilt.  The keying pass
// assigns every row a dense bucket id (first-occurrence order) and the
// placement pass prefix-sums the bucket sizes and drops each row into
// its bucket's next slot — ascending row order in, ascending row order
// per bucket out — under the masked polling contract.  The slot's
// tables are reused: the map the step's key width needs is cleared, or
// made at the relation's row count (the upper bound on distinct keys)
// when the slot has none.
func (s *streamSearcher) buildIndex(st *planStep, fr *instance.FrozenRelation) bool {
	n := fr.NumRows()
	idx := &s.idx[st.indexSlot]
	idx.rowBid = grow(idx.rowBid, n)
	rowBid := idx.rowBid
	var nBuckets int32
	if len(st.keyPos) == 1 {
		p := st.keyPos[0]
		if idx.oneIDs == nil {
			idx.oneIDs = make(map[value.ID]int32, n)
		} else {
			clear(idx.oneIDs)
		}
		oneIDs := idx.oneIDs
		for i := 0; i < n; i++ {
			if i&cancelCheckMask == cancelCheckMask {
				if err := s.ctx.Err(); err != nil {
					s.canceled = err
					return false
				}
			}
			id := fr.Cell(i, p)
			bid, ok := oneIDs[id]
			if !ok {
				bid = nBuckets
				nBuckets++
				oneIDs[id] = bid
			}
			rowBid[i] = bid
		}
	} else {
		if idx.keyIDs == nil {
			idx.keyIDs = make(map[string]int32, n)
		} else {
			clear(idx.keyIDs)
		}
		keyIDs := idx.keyIDs
		for i := 0; i < n; i++ {
			if i&cancelCheckMask == cancelCheckMask {
				if err := s.ctx.Err(); err != nil {
					s.canceled = err
					return false
				}
			}
			s.keyBuf = s.keyBuf[:0]
			for _, p := range st.keyPos {
				s.keyBuf = appendIDKey(s.keyBuf, fr.Cell(i, p))
			}
			bid, ok := keyIDs[string(s.keyBuf)]
			if !ok {
				bid = nBuckets
				nBuckets++
				keyIDs[string(s.keyBuf)] = bid
			}
			rowBid[i] = bid
		}
	}
	idx.starts = resize(idx.starts, int(nBuckets)+1)
	starts := idx.starts
	for _, bid := range rowBid {
		starts[bid+1]++
	}
	for b := int32(0); b < nBuckets; b++ {
		starts[b+1] += starts[b]
	}
	idx.rows = grow(idx.rows, n)
	rows := idx.rows
	s.next = grow(s.next, int(nBuckets))
	next := s.next
	copy(next, starts[:nBuckets])
	for i, bid := range rowBid {
		rows[next[bid]] = int32(i)
		next[bid]++
	}
	idx.built = true
	return true
}

// openCursor opens the pipeline operator for steps[depth] under the
// current binding: a positional scan when the step has no index slot,
// otherwise an indexed lookup over the (possibly empty) bucket of the
// step's key.  It returns false only on cancellation (during a lazy
// index build).
func (s *streamSearcher) openCursor(steps []planStep, depth int) bool {
	st := &steps[depth]
	c := &s.cursors[depth]
	fr := s.fz.Relations[st.relIdx]
	if st.indexSlot < 0 {
		c.rows, c.pos, c.n, c.indexed = nil, 0, fr.NumRows(), false
		return true
	}
	if !s.idx[st.indexSlot].built && !s.buildIndex(st, fr) {
		return false
	}
	idx := &s.idx[st.indexSlot]
	var rows []int32
	if len(st.keyPos) == 1 {
		if bid, ok := idx.oneIDs[s.binding[st.roots[st.keyPos[0]]]]; ok {
			rows = idx.bucket(bid)
		}
	} else {
		s.keyBuf = s.keyBuf[:0]
		for _, p := range st.keyPos {
			s.keyBuf = appendIDKey(s.keyBuf, s.binding[st.roots[p]])
		}
		if bid, ok := idx.keyIDs[string(s.keyBuf)]; ok {
			rows = idx.bucket(bid)
		}
	}
	c.rows, c.pos, c.n, c.indexed = rows, 0, 0, true
	return true
}

// runPipeline streams one component's steps.  With a nil leaf it stops
// at the first full match, leaving the successful bindings in place,
// and reports whether one was found.  With a leaf it calls leaf at
// every full match, unwinding that match's bindings afterwards, until
// the cursors run dry or leaf returns false, and then returns false.
// Either way s.canceled set on return means cancellation.
//
//keyedeq:hot -- the streamed pipeline driver: every candidate is one cursor pull plus ID-compare binds
func (s *streamSearcher) runPipeline(steps []planStep, leaf func() bool) bool {
	if len(steps) == 0 {
		return leaf == nil || leaf()
	}
	if !s.openCursor(steps, 0) {
		return false
	}
	depth, last := 0, len(steps)-1
	for {
		c := &s.cursors[depth]
		var ri int
		if c.indexed {
			if c.pos == len(c.rows) {
				if depth == 0 {
					return false
				}
				depth--
				s.unbindTo(s.marks[depth])
				continue
			}
			ri = int(c.rows[c.pos])
		} else {
			if c.pos == c.n {
				if depth == 0 {
					return false
				}
				depth--
				s.unbindTo(s.marks[depth])
				continue
			}
			ri = c.pos
		}
		c.pos++
		if !s.countNode() {
			return false
		}
		st := &steps[depth]
		s.marks[depth] = len(s.addedStack)
		if !s.bindRow(st.roots, s.fz.Relations[st.relIdx].Row(ri)) {
			s.unbindTo(s.marks[depth])
			continue
		}
		if depth == last {
			if leaf == nil {
				return true
			}
			if !leaf() {
				return false
			}
			s.unbindTo(s.marks[depth])
			continue
		}
		depth++
		if !s.openCursor(steps, depth) {
			return false
		}
	}
}

// buildStreamPlan compiles the plan into the pinned core s and emits
// the plan-stage span.
func buildStreamPlan(ctx context.Context, s *idSearchCore, comp *Compiled) *searchPlan {
	o := obs.FromContext(ctx)
	planStart := o.Time()
	plan := s.buildPlan(comp)
	if o.SpansOn() {
		steps := 0
		for ci := range plan.comps {
			steps += len(plan.comps[ci].steps)
		}
		o.EmitSpan(ctx, obs.StagePlan, planStart, nil,
			obs.I("components", int64(len(plan.comps))),
			obs.I("steps", int64(steps)))
	}
	return plan
}

// runComponentsSequential searches the plan's components in order over
// one searcher, recording per-component node counts, and reports
// whether every component matched.  A miss or a cancellation in an
// earlier component ends the search, so the recorded entries always sum
// to Nodes.
func runComponentsSequential(s *streamSearcher, plan *searchPlan) bool {
	s.stats.CompNodes = make([]int64, 0, len(plan.comps))
	for ci := range plan.comps {
		before := s.stats.Nodes
		found := s.runPipeline(plan.comps[ci].steps, nil)
		s.stats.CompNodes = append(s.stats.CompNodes, s.stats.Nodes-before)
		if !found {
			return false
		}
	}
	return true
}

// evalPipeline is the enumeration behind EvalWithStats: every
// component's distinct head projections are enumerated once through
// the pipeline, head-free components are checked for a single match,
// and the answer is the cross product — so independent components
// never multiply each other's backtracking.  Projections are
// deduplicated and combined as IDs; values are decoded only when an
// answer tuple is emitted.  It always plans and always runs
// sequentially.
//
//keyedeq:hot -- full-enumeration evaluation visits every match of every component
func evalPipeline(ctx context.Context, q *Query, d *instance.Database, out *instance.Relation) (EvalStats, error) {
	comp := Compile(q)
	defer comp.Release()
	if comp.Unsat {
		return EvalStats{}, nil
	}
	if err := resolveCompiled(q, comp, d.Schema); err != nil {
		return EvalStats{}, err
	}
	core := newIDSearchCore(ctx, d.Frozen(), comp)
	defer core.release()
	core.pin(q, comp, nil)
	plan := core.buildPlan(comp)
	s := newStreamSearcher(core, plan)

	// solutions[ci] holds component ci's distinct head-class projections
	// as one flat ID slice of stride len(headRoots) (nil for head-free
	// components, which only need one match).
	solutions := make([][]value.ID, len(plan.comps))
	for ci := range plan.comps {
		comp := &plan.comps[ci]
		before := s.stats.Nodes
		if len(comp.headRoots) == 0 {
			found := s.runPipeline(comp.steps, nil)
			s.stats.CompNodes = append(s.stats.CompNodes, s.stats.Nodes-before)
			if s.canceled != nil {
				return s.stats, s.canceled
			}
			if !found {
				return s.stats, nil
			}
			continue
		}
		seen := make(map[string]struct{})
		var sols []value.ID
		s.runPipeline(comp.steps, func() bool {
			s.keyBuf = s.keyBuf[:0]
			for _, id := range comp.headRoots {
				s.keyBuf = appendIDKey(s.keyBuf, s.binding[id])
			}
			if _, dup := seen[string(s.keyBuf)]; !dup {
				seen[string(s.keyBuf)] = struct{}{}
				for _, id := range comp.headRoots {
					sols = append(sols, s.binding[id])
				}
			}
			return true
		})
		s.stats.CompNodes = append(s.stats.CompNodes, s.stats.Nodes-before)
		if s.canceled != nil {
			return s.stats, s.canceled
		}
		if len(sols) == 0 {
			return s.stats, nil
		}
		solutions[ci] = sols
	}

	// Cross product: fix one projection per head-bearing component, then
	// emit the decoded head tuple (constant-bound classes read from the
	// prebound binding).  The product can dwarf the per-component
	// searches (k components of n solutions emit n^k tuples), so it polls
	// the context on its own emission counter — deliberately not
	// stats.Nodes, which counts only search-tree assignments.
	var emitted int64
	var emit func(ci int) bool
	emit = func(ci int) bool {
		for ci < len(plan.comps) && solutions[ci] == nil {
			ci++
		}
		if ci == len(plan.comps) {
			emitted++
			if emitted&cancelCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					s.canceled = err
					return false
				}
			}
			t := make(instance.Tuple, len(q.Head))
			for i, k := range comp.Head {
				if k < 0 {
					t[i] = q.Head[i].Const
					continue
				}
				t[i] = s.decodeID(s.binding[k])
			}
			out.MustInsert(t)
			return true
		}
		roots := plan.comps[ci].headRoots
		sols := solutions[ci]
		for k := 0; k < len(sols); k += len(roots) {
			for i, id := range roots {
				s.binding[id] = sols[k+i]
			}
			if !emit(ci + 1) {
				return false
			}
		}
		return true
	}
	emit(0)
	return s.stats, s.canceled
}
