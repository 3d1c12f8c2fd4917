// Package chase implements the classical chase with equality-generating
// dependencies (EGDs) — here, key and functional dependencies — over
// tableaux of labeled nulls and constants.
//
// The chase is the workhorse behind two decision procedures the paper's
// setting needs:
//
//   - conjunctive query containment under key dependencies (freeze the
//     candidate container's body, chase it with the key EGDs, then search
//     for a homomorphism), and
//
//   - the "view FD" test deciding whether a functional dependency holds on
//     every answer of a conjunctive query over key-satisfying instances
//     (two frozen copies, unify the X cells, chase, check the Y cells) —
//     which is exactly what deciding the paper's *valid* query mappings
//     requires.
package chase

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/instance"
	"keyedeq/internal/invariant"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// cancelCheckMask bounds how often straight-line scans over tableau
// rows poll their context: once every cancelCheckMask+1 rows, matching
// the search's polling contract in internal/cq.
const cancelCheckMask = 0x3ff

// Term identifies a tableau term: a labeled null or a constant, managed by
// the Tableau that created it.
type Term int

// Tableau is a set of rows over a schema whose cells are terms (labeled
// nulls or constants) with a union-find equating them.  The zero Tableau
// is not usable; call NewTableau.
type Tableau struct {
	Schema *schema.Schema
	rows   []row
	// cells is the chunk the rows' cells are carved from: a row's cells
	// are its run of the chunk current when the row was added, and a new
	// chunk replaces a full one, so rows share a few backing arrays.
	cells []Term

	parent []int
	rank   []int
	// For roots: optional constant binding and the term's type.
	constOf map[int]value.Value
	// interned maps each constant to its canonical term so equal
	// constants always share a class (required for correct grouping
	// during the chase).
	interned map[value.Value]Term
	typeOf   []value.Type
	failed   bool
}

type row struct {
	rel   int // index into Schema.Relations
	cells []Term
}

// NewTableau returns an empty tableau over s.
func NewTableau(s *schema.Schema) *Tableau {
	return &Tableau{
		Schema:   s,
		constOf:  make(map[int]value.Value),
		interned: make(map[value.Value]Term),
	}
}

// NewNull creates a fresh labeled null of the given attribute type.
func (t *Tableau) NewNull(typ value.Type) Term {
	id := len(t.parent)
	t.parent = append(t.parent, id)
	t.rank = append(t.rank, 0)
	t.typeOf = append(t.typeOf, typ)
	return Term(id)
}

// NewConst returns the canonical term bound to the constant v: calling it
// twice with the same constant yields terms in the same class, so the
// chase's grouping sees equal constants as equal.
func (t *Tableau) NewConst(v value.Value) Term {
	if tm, ok := t.interned[v]; ok {
		return tm
	}
	id := t.NewNull(v.Type)
	t.constOf[int(id)] = v
	t.interned[v] = id
	return id
}

// AddRow appends a row for the named relation.  Cell count must match the
// scheme's arity and cell types its attribute types.
func (t *Tableau) AddRow(rel string, cells []Term) error {
	ri := t.Schema.RelationIndex(rel)
	if ri < 0 {
		return fmt.Errorf("chase: no relation %q", rel)
	}
	return t.addRow(ri, cells)
}

// addRow is AddRow for the relation at index ri of the schema.  The
// row's cells are copied into the current chunk, or into a new one, at
// least twice as large, when the current one lacks room.
func (t *Tableau) addRow(ri int, cells []Term) error {
	r := t.Schema.Relations[ri]
	if len(cells) != r.Arity() {
		return fmt.Errorf("chase: row for %q has %d cells, want %d", r.Name, len(cells), r.Arity())
	}
	for i, c := range cells {
		if int(c) < 0 || int(c) >= len(t.parent) {
			return fmt.Errorf("chase: unknown term %d", c)
		}
		if t.typeOf[c] != r.Attrs[i].Type {
			return fmt.Errorf("chase: cell %d of %q has type %v, want %v", i, r.Name, t.typeOf[c], r.Attrs[i].Type)
		}
	}
	if cap(t.cells)-len(t.cells) < len(cells) {
		t.cells = make([]Term, 0, max(2*cap(t.cells), len(cells), minCellChunk))
	}
	from := len(t.cells)
	t.cells = append(t.cells, cells...)
	t.rows = append(t.rows, row{rel: ri, cells: t.cells[from:len(t.cells):len(t.cells)]})
	return nil
}

// minCellChunk is the size of a tableau's first chunk of row cells
// when nothing reserved one.
const minCellChunk = 64

// reserve makes room for rows more rows holding cells more cells and
// for terms more terms, so the adds that follow append in place.
func (t *Tableau) reserve(rows, cells, terms int) {
	t.rows = slices.Grow(t.rows, rows)
	if cap(t.cells)-len(t.cells) < cells {
		t.cells = make([]Term, 0, cells)
	}
	t.parent = slices.Grow(t.parent, terms)
	t.rank = slices.Grow(t.rank, terms)
	t.typeOf = slices.Grow(t.typeOf, terms)
}

// find returns the union-find representative of term id.
func (t *Tableau) find(id int) int {
	for t.parent[id] != id {
		t.parent[id] = t.parent[t.parent[id]]
		id = t.parent[id]
	}
	return id
}

// Same reports whether two terms have been equated.
func (t *Tableau) Same(a, b Term) bool { return t.find(int(a)) == t.find(int(b)) }

// ConstOf returns the constant a term's class is bound to, if any.
func (t *Tableau) ConstOf(a Term) (value.Value, bool) {
	v, ok := t.constOf[t.find(int(a))]
	return v, ok
}

// Failed reports whether some assertion equated two distinct constants
// (a failing chase).
func (t *Tableau) Failed() bool { return t.failed }

// Assert equates two terms.  Equating distinct constants marks the
// tableau failed; equating terms of different attribute types is an
// error (it cannot arise from well-typed queries).
func (t *Tableau) Assert(a, b Term) error {
	ra, rb := t.find(int(a)), t.find(int(b))
	if ra == rb {
		return nil
	}
	if t.typeOf[ra] != t.typeOf[rb] {
		return fmt.Errorf("chase: equating terms of types %v and %v", t.typeOf[ra], t.typeOf[rb])
	}
	ca, hasA := t.constOf[ra]
	cb, hasB := t.constOf[rb]
	if t.rank[ra] < t.rank[rb] {
		ra, rb = rb, ra
	}
	t.parent[rb] = ra
	if t.rank[ra] == t.rank[rb] {
		t.rank[ra]++
	}
	switch {
	case hasA && hasB:
		if ca != cb {
			t.failed = true
		}
		t.constOf[ra] = ca
		delete(t.constOf, rb)
	case hasB:
		t.constOf[ra] = cb
		delete(t.constOf, rb)
	case hasA:
		t.constOf[ra] = ca
	}
	return nil
}

// Stats reports work done by a chase run.
type Stats struct {
	// Iterations counts fixpoint rounds: full passes over the
	// dependencies for the naive chase, delta waves (batches of rows
	// revisited because a key class changed) for the semi-naive chase.
	Iterations int
	// Merges is the number of union operations applied.
	Merges int
	// Revisited counts (dependency, row) work items processed by the
	// semi-naive chase (zero for the naive chase, which always rescans
	// every row in every pass).
	Revisited int
}

// reportRun emits a finished (or aborted) chase run's counters to the
// obs layer carried by ctx, if any.  It is deferred right after
// dependency compilation succeeds, so it fires on cancellation too:
// exported chase totals account for partial work, matching the partial
// Stats that callers record on the error path.  Compilation failures
// never ran a fixpoint and are not counted as runs.
func (t *Tableau) reportRun(ctx context.Context, stats *Stats) {
	o := obs.FromContext(ctx)
	if o == nil {
		return
	}
	o.C(obs.CChaseRuns).Inc()
	o.C(obs.CChaseIterations).Add(int64(stats.Iterations))
	o.C(obs.CChaseMerges).Add(int64(stats.Merges))
	o.C(obs.CChaseRevisited).Add(int64(stats.Revisited))
	if t.failed {
		o.C(obs.CChaseFailed).Inc()
	}
	o.H(obs.HChaseIterations).Observe(int64(stats.Iterations))
}

// egd is one compiled equality-generating dependency: a relation index
// and the LHS/RHS attribute positions.
type egd struct {
	rel  int
	x, y []int
}

// compileEGDs resolves schema-level dependencies to position form.
// Every dependency must have all attributes within a single relation
// (EGD form); cross-relation dependencies are rejected.
func (t *Tableau) compileEGDs(deps []fd.FD) ([]egd, error) {
	egds := make([]egd, 0, len(deps))
	for _, d := range deps {
		rel, ok := d.SameRelation()
		if !ok {
			return nil, fmt.Errorf("chase: dependency %s spans relations; only EGDs over one relation are supported", d)
		}
		ri := t.Schema.RelationIndex(rel)
		if ri < 0 {
			return nil, fmt.Errorf("chase: dependency %s over unknown relation", d)
		}
		e := egd{rel: ri}
		arity := t.Schema.Relations[ri].Arity()
		for _, a := range d.X {
			if a.Pos < 0 || a.Pos >= arity {
				return nil, fmt.Errorf("chase: dependency %s position out of range", d)
			}
			e.x = append(e.x, a.Pos)
		}
		for _, a := range d.Y {
			if a.Pos < 0 || a.Pos >= arity {
				return nil, fmt.Errorf("chase: dependency %s position out of range", d)
			}
			e.y = append(e.y, a.Pos)
		}
		egds = append(egds, e)
	}
	return egds, nil
}

// Run chases the tableau with the given schema-level dependencies until
// fixpoint.  On a failing chase the tableau's Failed flag is set and Run
// returns normally (failure is a result, not an error).
func (t *Tableau) Run(deps []fd.FD) (Stats, error) {
	return t.RunCtx(context.Background(), deps)
}

// RunCtx is Run with cancellation: the chase polls ctx once per delta
// wave and aborts with ctx's error when it is done.
//
// The fixpoint is computed semi-naively: rows are bucketed per
// dependency by the union-find representatives of their LHS cells, and
// after the initial pass only rows whose LHS representatives changed in
// a merge are revisited.  The key observation making the stale-bucket
// bookkeeping sound is that the union-find only coarsens: an absorbed
// representative id is never a representative again, so a bucket key
// mentioning one can never be produced — stale entries are unreachable,
// not wrong.  The full-rescan fixpoint remains as RunNaiveCtx for
// differential testing.
//
//keyedeq:hot -- the per-wave worklist drain dominates every chase-backed decision procedure
func (t *Tableau) RunCtx(ctx context.Context, deps []fd.FD) (Stats, error) {
	egds, err := t.compileEGDs(deps)
	if err != nil {
		return Stats{}, err
	}
	var stats Stats
	defer t.reportRun(ctx, &stats)
	classesBefore := 0
	if invariant.Debug {
		classesBefore = t.classCount()
	}

	type item struct {
		egd, row int32
	}
	// Seed: every (dependency, row) pair of the dependency's relation.
	// The worklist's exact size is the sum over dependencies of their
	// relation's row count; tally it first so the seeding scan appends
	// into place instead of growing by doubling.
	rowsPerRel := make([]int, len(t.Schema.Relations))
	for ri := range t.rows {
		if ri&cancelCheckMask == cancelCheckMask {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
		}
		rowsPerRel[t.rows[ri].rel]++
	}
	seedCount := 0
	for _, e := range egds {
		seedCount += rowsPerRel[e.rel]
	}
	queued := make([][]bool, len(egds))
	cur := make([]item, 0, seedCount)
	var next []item
	for ei := range egds {
		// Seeding scans every (dependency, row) pair; poll once per
		// dependency so a huge tableau cannot outlive its deadline
		// before the first wave even starts.
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		queued[ei] = make([]bool, len(t.rows))
		for ri := range t.rows {
			if t.rows[ri].rel == egds[ei].rel {
				queued[ei][ri] = true
				cur = append(cur, item{int32(ei), int32(ri)})
			}
		}
	}

	// Per-root entry lists replace the old map[int][]item: every work
	// item whose LHS key mentions a term of a class is one node in that
	// class representative's singly linked list, laid out in three flat
	// arrays (entries, entryNext, rootHead/rootTail) with the exact
	// total entry count presized.  When a class is absorbed in a merge
	// its items' keys change, so they are requeued and the whole list
	// splices onto the winning root in O(1) — no per-merge slice
	// growth, no map churn, and the same append order as before.
	entryCount := 0
	for _, e := range egds {
		entryCount += rowsPerRel[e.rel] * len(e.x)
	}
	entries := make([]item, 0, entryCount)
	entryNext := make([]int32, 0, entryCount)
	rootHead := make([]int32, len(t.parent))
	rootTail := make([]int32, len(t.parent))
	for i := range rootHead {
		rootHead[i] = -1
	}
	for ei := range egds {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		for ri := range t.rows {
			if t.rows[ri].rel != egds[ei].rel {
				continue
			}
			for _, p := range egds[ei].x {
				root := t.find(int(t.rows[ri].cells[p]))
				idx := int32(len(entries))
				entries = append(entries, item{int32(ei), int32(ri)})
				entryNext = append(entryNext, -1)
				if rootHead[root] < 0 {
					rootHead[root] = idx
				} else {
					entryNext[rootTail[root]] = idx
				}
				rootTail[root] = idx
			}
		}
	}

	merge := func(a, b Term) error {
		ra, rb := t.find(int(a)), t.find(int(b))
		if ra == rb {
			return nil
		}
		if err := t.Assert(a, b); err != nil {
			return err
		}
		stats.Merges++
		winner := t.find(ra)
		loser := rb
		if winner == rb {
			loser = ra
		}
		for e := rootHead[loser]; e >= 0; e = entryNext[e] {
			it := entries[e]
			if !queued[it.egd][it.row] {
				queued[it.egd][it.row] = true
				next = append(next, it)
			}
		}
		if rootHead[loser] >= 0 {
			if rootHead[winner] < 0 {
				rootHead[winner] = rootHead[loser]
			} else {
				entryNext[rootTail[winner]] = rootHead[loser]
			}
			rootTail[winner] = rootTail[loser]
			rootHead[loser] = -1
		}
		return nil
	}

	// buckets[e] maps an LHS key to the first row seen with it; later
	// rows with the same key merge their RHS cells into that row's.
	// Single-position LHSs — the common key shape — index a dense
	// per-dependency array by the union-find root (-1 = empty), one
	// machine-word load per probe.  Multi-position LHSs fold their root
	// IDs pairwise through an interning table (each distinct (acc, root)
	// pair gets a dense uint32), so a key of any width becomes one
	// uint64 — no byte encoding, no string materialization.  Fold IDs
	// are injective by construction, so distinct projections never
	// share a bucket key.
	buckets1 := make([][]int32, len(egds))
	buckets := make([]map[uint64]int32, len(egds))
	var pairIDs map[uint64]uint32
	for ei := range egds {
		if len(egds[ei].x) == 1 {
			b := make([]int32, len(t.parent))
			for i := range b {
				b[i] = -1
			}
			buckets1[ei] = b
		} else {
			buckets[ei] = make(map[uint64]int32)
			if pairIDs == nil {
				pairIDs = make(map[uint64]uint32)
			}
		}
	}
	foldKey := func(r row, x []int) uint64 {
		acc := uint64(uint32(t.find(int(r.cells[x[0]]))))
		for _, p := range x[1:] {
			rep := uint64(uint32(t.find(int(r.cells[p]))))
			pk := acc<<32 | rep
			id, ok := pairIDs[pk]
			if !ok {
				id = uint32(len(pairIDs))
				pairIDs[pk] = id
			}
			acc = uint64(id)
		}
		return acc
	}
	for len(cur) > 0 && !t.failed {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		stats.Iterations++
		for _, it := range cur {
			if t.failed {
				break
			}
			queued[it.egd][it.row] = false
			e := &egds[it.egd]
			r := t.rows[it.row]
			stats.Revisited++
			var first int32
			if len(e.x) == 1 {
				root := t.find(int(r.cells[e.x[0]]))
				first = buckets1[it.egd][root]
				if first < 0 {
					buckets1[it.egd][root] = it.row
					continue
				}
			} else {
				key := foldKey(r, e.x)
				f, ok := buckets[it.egd][key]
				if !ok {
					buckets[it.egd][key] = it.row
					continue
				}
				first = f
			}
			if first == it.row {
				continue
			}
			fr := t.rows[first]
			for _, p := range e.y {
				if !t.Same(fr.cells[p], r.cells[p]) {
					if err := merge(fr.cells[p], r.cells[p]); err != nil {
						return stats, err
					}
				}
			}
		}
		cur, next = next, cur[:0]
	}
	if stats.Iterations == 0 {
		// An empty tableau or dependency set still counts as one pass,
		// matching the naive chase's single no-op scan.
		stats.Iterations = 1
	}
	if invariant.Debug {
		// The chase is monotone: every merge collapses exactly two
		// classes into one and nothing ever splits, so the class count
		// must drop by precisely the number of merges.  This is what
		// makes the worklist drain a fixpoint.
		classesAfter := t.classCount()
		invariant.Assertf(classesBefore-classesAfter == stats.Merges,
			"chase: run went from %d to %d classes with %d merges",
			classesBefore, classesAfter, stats.Merges)
	}
	return stats, nil
}

// RunNaive chases to fixpoint by full rescans: every pass regroups every
// row of every dependency's relation.  It is the reference
// implementation the semi-naive RunCtx is differentially tested against.
func (t *Tableau) RunNaive(deps []fd.FD) (Stats, error) {
	return t.RunNaiveCtx(context.Background(), deps)
}

// RunNaiveCtx is RunNaive with cancellation: the chase polls ctx once
// per pass over the dependencies and aborts with ctx's error when it is
// done.
func (t *Tableau) RunNaiveCtx(ctx context.Context, deps []fd.FD) (Stats, error) {
	egds, err := t.compileEGDs(deps)
	if err != nil {
		return Stats{}, err
	}
	var stats Stats
	defer t.reportRun(ctx, &stats)
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		stats.Iterations++
		changed := false
		mergesBefore := stats.Merges
		classesBefore := 0
		if invariant.Debug {
			classesBefore = t.classCount()
		}
		for _, e := range egds {
			// Group rows of e.rel by the representatives of their X cells.
			groups := make(map[string]row)
			for _, r := range t.rows {
				if r.rel != e.rel {
					continue
				}
				key := t.projKey(r, e.x)
				first, ok := groups[key]
				if !ok {
					groups[key] = r
					continue
				}
				for _, p := range e.y {
					if !t.Same(first.cells[p], r.cells[p]) {
						if err := t.Assert(first.cells[p], r.cells[p]); err != nil {
							return stats, err
						}
						stats.Merges++
						changed = true
					}
				}
			}
		}
		if invariant.Debug {
			// The chase is monotone: every merge collapses exactly two
			// classes into one and nothing ever splits, so the class
			// count must drop by precisely the merges of this pass.
			// This is what makes the fixpoint below a fixpoint.
			classesAfter := t.classCount()
			passMerges := stats.Merges - mergesBefore
			invariant.Assertf(classesBefore-classesAfter == passMerges,
				"chase: pass %d went from %d to %d classes with %d merges",
				stats.Iterations, classesBefore, classesAfter, passMerges)
			invariant.Assertf(changed == (passMerges > 0),
				"chase: pass %d reported changed=%v with %d merges", stats.Iterations, changed, passMerges)
		}
		if !changed || t.failed {
			return stats, nil
		}
	}
}

// classCount returns the number of distinct term classes (debug
// instrumentation for the chase monotonicity invariant).
func (t *Tableau) classCount() int {
	n := 0
	for id := range t.parent {
		if t.find(id) == id {
			n++
		}
	}
	return n
}

// appendProj appends the representatives of the projected cells to b
// as a delimiter-separated byte key, reusing b's capacity.
func (t *Tableau) appendProj(b []byte, r row, positions []int) []byte {
	for _, p := range positions {
		rep := t.find(int(r.cells[p]))
		b = appendInt(b, rep)
		b = append(b, ',')
	}
	return b
}

// projKey renders the representatives of the projected cells as a map
// key.  Only the naive reference chase uses it; the semi-naive hot path
// keys single-position dependencies on dense root-indexed arrays and
// folds multi-position keys pairwise through an ID-interning table.
func (t *Tableau) projKey(r row, positions []int) string {
	return string(t.appendProj(make([]byte, 0, len(positions)*4), r, positions))
}

func appendInt(b []byte, n int) []byte {
	if n == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	return append(b, tmp[i:]...)
}

// frozenScratch holds the tables Frozen builds and drops: each class
// root's resolution flag, each type's null count, each row's resolved
// cells with their offsets, and the rows' sorted order.
type frozenScratch struct {
	resolved []bool
	nulls    map[value.Type]int64
	at       []int
	cells    []value.Value
	order    []int32
}

// frozenScratches recycles Frozen's tables across calls.
var frozenScratches = sync.Pool{New: func() any {
	return &frozenScratch{nulls: make(map[value.Type]int64)}
}}

// release returns sc to the pool, unless a tableau of more than
// cq.MaxPooledSlots terms or cells grew it.
func (sc *frozenScratch) release() {
	if cap(sc.resolved) <= cq.MaxPooledSlots && cap(sc.cells) <= cq.MaxPooledSlots {
		frozenScratches.Put(sc)
	}
}

// Frozen converts the (chased) tableau to its canonical database in
// interned form, and returns each term's value beside it: every term
// class bound to a constant becomes that constant, and every unbound
// class becomes the next labeled null of its type, numbered from 1.  No
// constant equals a null, so the database serves any query over the
// schema.  Values resolve in one pass over a slice indexed by class
// root — rows in order, cells left to right, then every term by id —
// and each relation's rows are sorted by value with duplicates dropped,
// so the view is exactly what instance.FreezeDatabase builds from the
// same database: values interned with relations in schema order, rows
// in order, positions left to right.  It fails on a failed tableau.
//
// Only the view and the term values are allocated; the tables that
// resolve and sort the rows are pooled scratch.  The rows hold one
// value per class that occurs in them, so that count sizes the view's
// interner.
func (t *Tableau) Frozen() (*instance.Frozen, []value.Value, error) {
	if t.failed {
		return nil, nil, fmt.Errorf("chase: tableau failed; no database exists")
	}
	sc := frozenScratches.Get().(*frozenScratch)
	defer sc.release()
	// vals holds each class's value at its root until the last pass
	// below writes every term's value; nulls counts each type's nulls
	// and distinct the classes resolved so far.
	vals := make([]value.Value, len(t.parent))
	sc.resolved = resize(sc.resolved, len(t.parent))
	clear(sc.nulls)
	resolved, nulls, distinct := sc.resolved, sc.nulls, 0
	resolve := func(id int) value.Value {
		rep := t.find(id)
		if !resolved[rep] {
			v, ok := t.constOf[rep]
			if !ok {
				typ := t.typeOf[rep]
				nulls[typ]++
				v = value.Value{Type: typ, Null: true, N: nulls[typ]}
			}
			vals[rep], resolved[rep] = v, true
			distinct++
		}
		return vals[rep]
	}
	// Resolve every row into cells, row i at [at[i], at[i+1]), then
	// order the rows by relation and value.
	sc.at = grow(sc.at, len(t.rows)+1)
	at := sc.at
	at[0] = 0
	for i, r := range t.rows {
		at[i+1] = at[i] + len(r.cells)
	}
	sc.cells = grow(sc.cells, at[len(t.rows)])
	sc.order = grow(sc.order, len(t.rows))
	cells, order := sc.cells, sc.order
	for i, r := range t.rows {
		order[i] = int32(i)
		for p, c := range r.cells {
			cells[at[i]+p] = resolve(int(c))
		}
	}
	inRows := distinct
	for id := range vals {
		vals[id] = resolve(id)
	}
	row := func(i int32) instance.Tuple { return cells[at[i]:at[i+1]] }
	slices.SortFunc(order, func(a, b int32) int {
		if d := t.rows[a].rel - t.rows[b].rel; d != 0 {
			return d
		}
		return row(a).Compare(row(b))
	})

	rels := t.Schema.Relations
	fz := &instance.Frozen{
		Schema:    t.Schema,
		Interner:  value.NewInterner(inRows),
		Relations: make([]*instance.FrozenRelation, len(rels)),
	}
	ids := make([]value.ID, 0, len(cells))
	k := 0
	for ri, rs := range rels {
		first, from := k, len(ids)
		for ; k < len(order) && t.rows[order[k]].rel == ri; k++ {
			if k > first && row(order[k]).Equal(row(order[k-1])) {
				continue
			}
			for _, v := range row(order[k]) {
				ids = append(ids, fz.Interner.Intern(v))
			}
		}
		fz.Relations[ri] = instance.NewFrozenRelation(rs, ids[from:len(ids):len(ids)])
	}
	return fz, vals, nil
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// grow returns s with length n, reusing its backing array when it is
// large enough, for a caller that overwrites every element.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ToDatabase is Frozen decoded to surface values: the chased canonical
// database and each term's value.  It fails on a failed tableau.
func (t *Tableau) ToDatabase() (*instance.Database, []value.Value, error) {
	fz, vals, err := t.Frozen()
	if err != nil {
		return nil, nil, err
	}
	return fz.Database(), vals, nil
}

// RowCount returns the number of rows (before deduplication).
func (t *Tableau) RowCount() int { return len(t.rows) }
