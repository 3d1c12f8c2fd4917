package instance

import (
	"keyedeq/internal/invariant"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// This file implements the frozen (interned) view of a database: every
// value interned to a dense value.ID and every relation body stored as
// one flat fixed-width row array.  The homomorphism search runs its hot
// loops over these ID rows; surface values reappear only at the decode
// boundary (witnesses, dumps, errors, the naive oracle).  A canonical
// database is born frozen — the chase emits this view directly
// (chase.Tableau.Frozen) — while a value Database reaches it through
// the memoized Database.Frozen, invalidated by mutation.  The view is
// immutable data with no locks, never mutated itself, so any number of
// searches may read one view concurrently.

// FrozenRelation is one relation instance encoded as interned rows:
// rows holds NumRows()*Arity() IDs, row-major, in exactly the order of
// Relation.Tuples() (lexicographic by value), so positional row
// indexes mean the same thing in both representations.
type FrozenRelation struct {
	Scheme *schema.Relation
	arity  int
	rows   []value.ID
}

// NewFrozenRelation wraps pre-interned flat rows in row-major order —
// the bulk-load path for instances too large to stage through the
// map-backed Relation.  The row width is the scheme's arity.
func NewFrozenRelation(scheme *schema.Relation, rows []value.ID) *FrozenRelation {
	arity := scheme.Arity()
	invariant.Mustf(arity > 0 && len(rows)%arity == 0,
		"instance: frozen %q: %d cells is not a multiple of arity %d", scheme.Name, len(rows), arity)
	return &FrozenRelation{Scheme: scheme, arity: arity, rows: rows}
}

// Arity returns the fixed row width.
func (f *FrozenRelation) Arity() int { return f.arity }

// NumRows returns the number of rows.
func (f *FrozenRelation) NumRows() int {
	if f.arity == 0 {
		return 0
	}
	return len(f.rows) / f.arity
}

// Row returns row i as a read-only slice view into the flat array.
func (f *FrozenRelation) Row(i int) []value.ID {
	return f.rows[i*f.arity : (i+1)*f.arity : (i+1)*f.arity]
}

// Cell returns position p of row i.
func (f *FrozenRelation) Cell(i, p int) value.ID { return f.rows[i*f.arity+p] }

// Frozen is the interned view of one Database: a shared Interner and
// one FrozenRelation per schema relation, positionally aligned with
// Database.Relations.  IDs are meaningful only relative to this view's
// Interner and must be decoded before they escape it.
type Frozen struct {
	Schema    *schema.Schema
	Interner  *value.Interner
	Relations []*FrozenRelation
}

// FreezeDatabase builds the interned view of d: values are interned in
// deterministic first-occurrence order (relations in schema order,
// tuples in sorted order, positions left to right), so freezing equal
// databases always yields identical ID tables and row arrays.
func FreezeDatabase(d *Database) *Frozen {
	f := &Frozen{
		Schema:    d.Schema,
		Interner:  value.NewInterner(d.Size()),
		Relations: make([]*FrozenRelation, len(d.Relations)),
	}
	for i, r := range d.Relations {
		arity := 0
		if r.Scheme != nil {
			arity = r.Scheme.Arity()
		}
		tuples := r.Tuples()
		if arity == 0 && len(tuples) > 0 {
			arity = len(tuples[0])
		}
		fr := &FrozenRelation{Scheme: r.Scheme, arity: arity}
		fr.rows = make([]value.ID, 0, len(tuples)*arity)
		for _, t := range tuples {
			for _, v := range t {
				fr.rows = append(fr.rows, f.Interner.Intern(v))
			}
		}
		f.Relations[i] = fr
	}
	return f
}

// DecodeTuple decodes row i of relation ri back to surface values.
func (f *Frozen) DecodeTuple(ri, i int) Tuple {
	fr := f.Relations[ri]
	out := make(Tuple, fr.arity)
	for p := 0; p < fr.arity; p++ {
		v, ok := f.Interner.Decode(fr.Cell(i, p))
		invariant.Mustf(ok, "instance: frozen row %d of relation %d holds foreign ID", i, ri)
		out[p] = v
	}
	return out
}

// Database decodes f into a value database holding every row as a
// tuple: the inverse of FreezeDatabase.  The naive search oracle and
// the value-level tools read a canonical database through it.
func (f *Frozen) Database() *Database {
	d := NewDatabase(f.Schema)
	for ri, fr := range f.Relations {
		for i := 0; i < fr.NumRows(); i++ {
			d.Relations[ri].MustInsert(f.DecodeTuple(ri, i))
		}
	}
	return d
}

// Frozen returns the memoized interned view of d, rebuilding it only
// after a mutation.  Like Tuples(), the result must be treated as
// read-only, and concurrent readers are safe as long as no writer runs.
func (d *Database) Frozen() *Frozen {
	d.frozenMu.Lock()
	defer d.frozenMu.Unlock()
	if d.frozenMemo != nil {
		fresh := true
		for i, r := range d.Relations {
			if r.versionSnapshot() != d.frozenVers[i] {
				fresh = false
				break
			}
		}
		if fresh {
			return d.frozenMemo
		}
	}
	vers := make([]uint64, len(d.Relations))
	for i, r := range d.Relations {
		vers[i] = r.versionSnapshot()
	}
	d.frozenMemo, d.frozenVers = FreezeDatabase(d), vers
	return d.frozenMemo
}
