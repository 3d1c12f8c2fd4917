// Package instance implements database instances of relational schemas:
// tuples, relation instances (sets of tuples), database instances, and the
// checks the paper's proofs rely on — key-dependency satisfaction,
// functional-dependency satisfaction, attribute-specificity, and the key
// projection π_κ.
package instance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"keyedeq/internal/invariant"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Tuple is one row of a relation instance.
type Tuple []value.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Project returns the tuple restricted to the given positions, in order.
func (t Tuple) Project(positions []int) Tuple {
	out := make(Tuple, len(positions))
	for i, p := range positions {
		out[i] = t[p]
	}
	return out
}

// String renders "(T1:1, T2:5)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// key renders the tuple's map key: "type:n", or "type:_n" for a null,
// per value, comma-separated.
func (t Tuple) key() string {
	var buf [64]byte
	b := buf[:0]
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v.Type), 10)
		b = append(b, ':')
		if v.Null {
			b = append(b, '_')
		}
		b = strconv.AppendInt(b, v.N, 10)
	}
	return string(b)
}

// Relation is an instance of one relation scheme: a set of tuples of the
// scheme's type.  The zero Relation is an empty instance (of unknown
// scheme); use NewRelation to bind a scheme.
type Relation struct {
	Scheme *schema.Relation
	tuples map[string]Tuple
	// sortedMu guards sorted, the memoized Tuples() result.  Reads far
	// outnumber writes (the homomorphism search fetches the sorted order
	// once per atom per search, concurrently across engine workers), so
	// the sort runs once per mutation rather than once per call.
	sortedMu sync.RWMutex
	sorted   []Tuple
	// version counts mutations; the database-level frozen (interned)
	// view memoized in frozen.go compares snapshots of it to decide
	// whether a rebuild is due.
	version uint64
}

// NewRelation returns an empty instance of the given scheme.
func NewRelation(scheme *schema.Relation) *Relation {
	return &Relation{Scheme: scheme, tuples: make(map[string]Tuple)}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Insert adds t (copied) to the instance.  It rejects arity and type
// mismatches with the scheme.  Re-inserting an existing tuple is a no-op.
func (r *Relation) Insert(t Tuple) error {
	if r.Scheme != nil {
		if len(t) != len(r.Scheme.Attrs) {
			return fmt.Errorf("instance: tuple arity %d, scheme %q wants %d", len(t), r.Scheme.Name, len(r.Scheme.Attrs))
		}
		for i, v := range t {
			if v.Type != r.Scheme.Attrs[i].Type {
				return fmt.Errorf("instance: tuple position %d has type %v, scheme %q wants %v",
					i, v.Type, r.Scheme.Name, r.Scheme.Attrs[i].Type)
			}
		}
	}
	if r.tuples == nil {
		r.tuples = make(map[string]Tuple)
	}
	r.tuples[t.key()] = t.Clone()
	r.invalidateSorted()
	return nil
}

// MustInsert is Insert but panics on error; for tests and fixtures.
func (r *Relation) MustInsert(t Tuple) {
	invariant.Must(r.Insert(t))
}

// Has reports whether the instance contains t.
func (r *Relation) Has(t Tuple) bool {
	_, ok := r.tuples[t.key()]
	return ok
}

// Delete removes t if present.
func (r *Relation) Delete(t Tuple) {
	delete(r.tuples, t.key())
	r.invalidateSorted()
}

// invalidateSorted drops the memoized sorted order after a mutation.
func (r *Relation) invalidateSorted() {
	r.sortedMu.Lock()
	r.sorted = nil
	r.version++
	r.sortedMu.Unlock()
}

// versionSnapshot returns the current mutation count.
func (r *Relation) versionSnapshot() uint64 {
	r.sortedMu.RLock()
	v := r.version
	r.sortedMu.RUnlock()
	return v
}

// Tuples returns the tuples in deterministic (lexicographic) order.  The
// order is computed once per mutation and memoized, so repeated calls on
// a stable instance are O(1); callers must treat the returned slice as
// read-only.  Concurrent readers are safe as long as no writer runs.
func (r *Relation) Tuples() []Tuple {
	r.sortedMu.RLock()
	out := r.sorted
	r.sortedMu.RUnlock()
	if out != nil {
		return out
	}
	r.sortedMu.Lock()
	defer r.sortedMu.Unlock()
	if r.sorted == nil {
		out = make([]Tuple, 0, len(r.tuples))
		for _, t := range r.tuples {
			out = append(out, t)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
		r.sorted = out
	}
	return r.sorted
}

// Clone returns a deep copy sharing the scheme.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.Scheme)
	for k, t := range r.tuples {
		c.tuples[k] = t.Clone()
	}
	return c
}

// Equal reports whether r and s contain exactly the same tuples.
func (r *Relation) Equal(s *Relation) bool {
	if r.Len() != s.Len() {
		return false
	}
	for k := range r.tuples {
		if _, ok := s.tuples[k]; !ok {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every tuple of r is in s.
func (r *Relation) SubsetOf(s *Relation) bool {
	if r.Len() > s.Len() {
		return false
	}
	for k := range r.tuples {
		if _, ok := s.tuples[k]; !ok {
			return false
		}
	}
	return true
}

// SatisfiesKey reports whether the instance satisfies the scheme's key
// dependency: no two distinct tuples agree on all key attributes.  An
// unkeyed scheme is vacuously satisfied.
func (r *Relation) SatisfiesKey() bool {
	if r.Scheme == nil || !r.Scheme.Keyed() {
		return true
	}
	return r.SatisfiesFD(r.Scheme.KeyPositions(), allPositions(len(r.Scheme.Attrs)))
}

// SatisfiesFD reports whether the instance satisfies the functional
// dependency X → Y given as position sets: every pair of tuples agreeing
// on X also agrees on Y.
func (r *Relation) SatisfiesFD(x, y []int) bool {
	seen := make(map[string]Tuple, len(r.tuples))
	for _, t := range r.tuples {
		k := t.Project(x).key()
		if prev, ok := seen[k]; ok {
			for _, p := range y {
				if prev[p] != t[p] {
					return false
				}
			}
		} else {
			seen[k] = t
		}
	}
	return true
}

// Column returns the set of values appearing in attribute position p.
func (r *Relation) Column(p int) *value.Set {
	var s value.Set
	for _, t := range r.tuples {
		s.Add(t[p])
	}
	return &s
}

// String renders the scheme name and sorted tuples.
func (r *Relation) String() string {
	var b strings.Builder
	name := "?"
	if r.Scheme != nil {
		name = r.Scheme.Name
	}
	b.WriteString(name)
	b.WriteString(" {")
	for i, t := range r.Tuples() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

func allPositions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Database is a database instance of a schema: one relation instance per
// relation scheme, in schema order.
type Database struct {
	Schema    *schema.Schema
	Relations []*Relation
	// frozenMu guards the memoized interned view (frozen.go).
	frozenMu   sync.Mutex
	frozenMemo *Frozen
	frozenVers []uint64
}

// NewDatabase returns an empty instance of s.
func NewDatabase(s *schema.Schema) *Database {
	d := &Database{Schema: s, Relations: make([]*Relation, len(s.Relations))}
	for i, r := range s.Relations {
		d.Relations[i] = NewRelation(r)
	}
	return d
}

// Relation returns the instance of the named relation, or nil.
func (d *Database) Relation(name string) *Relation {
	i := d.Schema.RelationIndex(name)
	if i < 0 {
		return nil
	}
	return d.Relations[i]
}

// Insert adds a tuple to the named relation.
func (d *Database) Insert(rel string, t Tuple) error {
	r := d.Relation(rel)
	if r == nil {
		return fmt.Errorf("instance: no relation %q", rel)
	}
	return r.Insert(t)
}

// MustInsert is Insert but panics on error.
func (d *Database) MustInsert(rel string, vals ...value.Value) {
	invariant.Must(d.Insert(rel, Tuple(vals)))
}

// Clone returns a deep copy.
func (d *Database) Clone() *Database {
	c := &Database{Schema: d.Schema, Relations: make([]*Relation, len(d.Relations))}
	for i, r := range d.Relations {
		c.Relations[i] = r.Clone()
	}
	return c
}

// Equal reports whether d and e have identical contents relation-wise.
// The schemas must have the same relation count; relations are compared
// positionally.
func (d *Database) Equal(e *Database) bool {
	if len(d.Relations) != len(e.Relations) {
		return false
	}
	for i := range d.Relations {
		if !d.Relations[i].Equal(e.Relations[i]) {
			return false
		}
	}
	return true
}

// SatisfiesKeys reports whether every relation instance satisfies its key
// dependency — the paper's criterion for an instance of a keyed schema.
func (d *Database) SatisfiesKeys() bool {
	for _, r := range d.Relations {
		if !r.SatisfiesKey() {
			return false
		}
	}
	return true
}

// NonEmpty reports whether every relation instance is non-empty (several
// of the paper's constructions require this).
func (d *Database) NonEmpty() bool {
	for _, r := range d.Relations {
		if r.Len() == 0 {
			return false
		}
	}
	return true
}

// Size returns the total number of tuples.
func (d *Database) Size() int {
	n := 0
	for _, r := range d.Relations {
		n += r.Len()
	}
	return n
}

// ActiveDomain returns the set of all values occurring in d.
func (d *Database) ActiveDomain() *value.Set {
	var s value.Set
	for _, r := range d.Relations {
		for _, t := range r.tuples {
			for _, v := range t {
				s.Add(v)
			}
		}
	}
	return &s
}

// AttributeSpecific reports whether d is attribute-specific: distinct
// attributes (across the whole schema) share no values.  This is the
// paper's Definition in §2 and the key gadget of most lemma proofs.
func (d *Database) AttributeSpecific() bool {
	cols := d.attributeColumns()
	for i := range cols {
		for j := i + 1; j < len(cols); j++ {
			if cols[i].Intersects(cols[j]) {
				return false
			}
		}
	}
	return true
}

func (d *Database) attributeColumns() []*value.Set {
	var cols []*value.Set
	for _, r := range d.Relations {
		if r.Scheme == nil {
			continue
		}
		for p := range r.Scheme.Attrs {
			cols = append(cols, r.Column(p))
		}
	}
	return cols
}

// String renders every relation instance on its own line.
func (d *Database) String() string {
	parts := make([]string, len(d.Relations))
	for i, r := range d.Relations {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}

// ProjectKappa computes π_κ(d): the instance of κ(S) obtained by
// projecting every relation onto its key attributes.  kschema and pos must
// come from schema.Kappa(d.Schema).
func ProjectKappa(d *Database, kschema *schema.Schema, pos [][]int) *Database {
	out := NewDatabase(kschema)
	for i, r := range d.Relations {
		for _, t := range r.tuples {
			// Projection of a set: duplicates collapse.
			out.Relations[i].MustInsert(t.Project(pos[i]))
		}
	}
	return out
}
