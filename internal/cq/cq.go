// Package cq implements the paper's conjunctive query language: relational
// algebra queries built from select, project, join and cartesian product
// with equality selections, written in the restricted Datalog style of §2:
//
//	V(A1, ..., An) :- R1(X1, ..., Xk), ..., Rl(Y1, ..., Ym), equality-list.
//
// Every placeholder in the body is a distinct variable; all selection and
// join conditions live in the equality list (X = Y or X = constant).  The
// package provides the equality-class machinery, the receives analysis,
// identity joins and ij-saturation, product queries (Lemmas 1 and 2),
// evaluation over database instances, and a parser/printer for the syntax.
package cq

import (
	"fmt"
	"sort"
	"strings"

	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Var is a query variable.
type Var string

// Term is either a variable or a constant; exactly one of the fields is
// meaningful, discriminated by IsConst.
type Term struct {
	IsConst bool
	Var     Var
	Const   value.Value
	// Pos locates the term in its source text (zero when constructed
	// programmatically).  It carries no semantic weight: terms are
	// compared field-by-field everywhere, never as whole structs.
	Pos Pos
}

// V builds a variable term.
func V(name string) Term { return Term{Var: Var(name)} }

// C builds a constant term.
func C(v value.Value) Term { return Term{IsConst: true, Const: v} }

// String renders the term.
func (t Term) String() string {
	if t.IsConst {
		return t.Const.String()
	}
	return string(t.Var)
}

// writeTo writes t.String() to b.
func (t Term) writeTo(b *strings.Builder) {
	if t.IsConst {
		b.WriteString(t.Const.String())
		return
	}
	b.WriteString(string(t.Var))
}

// Atom is one occurrence of a relation in a query body.  Per the paper's
// syntax every position holds a distinct variable (globally distinct
// across the whole body); all conditions are expressed in the equality
// list.
type Atom struct {
	Rel  string
	Vars []Var
	// Pos locates the atom (its relation name) in the source text.
	Pos Pos
	// VarPos, when set by a parser, holds one position per placeholder
	// in Vars.  Programmatically built atoms leave it nil; consumers
	// must fall back to Pos.
	VarPos []Pos
}

// VarPosition returns the source position of the i-th placeholder,
// falling back to the atom's own position when the parser did not
// record per-variable spans.
func (a Atom) VarPosition(i int) Pos {
	if i >= 0 && i < len(a.VarPos) {
		return a.VarPos[i]
	}
	return a.Pos
}

// String renders "R(X, Y)".
func (a Atom) String() string {
	var b strings.Builder
	b.Grow(a.textLen())
	a.writeTo(&b)
	return b.String()
}

// textLen is the length of a.String().
func (a Atom) textLen() int {
	n := len(a.Rel) + 2 + 2*max(len(a.Vars)-1, 0)
	for _, v := range a.Vars {
		n += len(v)
	}
	return n
}

// writeTo writes a.String() to b.
func (a Atom) writeTo(b *strings.Builder) {
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, v := range a.Vars {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(v))
	}
	b.WriteByte(')')
}

// Equality is one predicate of the equality list: Left = Right where Right
// is a variable or a constant.
type Equality struct {
	Left  Var
	Right Term
	// Pos locates the equality predicate in the source text.
	Pos Pos
}

// String renders "X = Y" or "X = T1:3".
func (e Equality) String() string { return string(e.Left) + " = " + e.Right.String() }

// Query is a conjunctive query with equality selections.
type Query struct {
	// HeadRel optionally names the view/answer relation.
	HeadRel string
	// Head lists the answer terms: variables occurring in the body, or
	// constants.
	Head []Term
	// Body lists the relation occurrences.
	Body []Atom
	// Eqs is the equality list.
	Eqs []Equality
	// Pos locates the start of the query in its source text.
	Pos Pos
}

// Clone returns a deep copy.
func (q *Query) Clone() *Query {
	c := &Query{HeadRel: q.HeadRel, Pos: q.Pos}
	c.Head = append([]Term(nil), q.Head...)
	c.Body = make([]Atom, len(q.Body))
	for i, a := range q.Body {
		c.Body[i] = Atom{
			Rel:    a.Rel,
			Vars:   append([]Var(nil), a.Vars...),
			Pos:    a.Pos,
			VarPos: append([]Pos(nil), a.VarPos...),
		}
	}
	c.Eqs = append([]Equality(nil), q.Eqs...)
	return c
}

// Arity returns the width of the answer.
func (q *Query) Arity() int { return len(q.Head) }

// BodyVars returns every placeholder variable in body order.
func (q *Query) BodyVars() []Var {
	var out []Var
	for _, a := range q.Body {
		out = append(out, a.Vars...)
	}
	return out
}

// HasBodyVar reports whether v occurs as a placeholder in the body.
func (q *Query) HasBodyVar(v Var) bool {
	for _, a := range q.Body {
		for _, w := range a.Vars {
			if w == v {
				return true
			}
		}
	}
	return false
}

// VarPos locates a variable's placeholder occurrence: the body atom index
// and position.  Because placeholders are globally distinct there is at
// most one.  Returns (-1, -1) if absent.
func (q *Query) VarPos(v Var) (atom, pos int) {
	for i, a := range q.Body {
		for j, w := range a.Vars {
			if w == v {
				return i, j
			}
		}
	}
	return -1, -1
}

// Rename returns a copy of q with every variable prefixed, guaranteeing
// disjointness from any query not using the prefix.  Used by query
// composition and saturation.
func (q *Query) Rename(prefix string) *Query {
	c := q.Clone()
	rename := func(v Var) Var { return Var(prefix + string(v)) }
	for i, t := range c.Head {
		if !t.IsConst {
			c.Head[i].Var = rename(t.Var)
		}
	}
	for i := range c.Body {
		for j, v := range c.Body[i].Vars {
			c.Body[i].Vars[j] = rename(v)
		}
	}
	for i := range c.Eqs {
		c.Eqs[i].Left = rename(c.Eqs[i].Left)
		if !c.Eqs[i].Right.IsConst {
			c.Eqs[i].Right.Var = rename(c.Eqs[i].Right.Var)
		}
	}
	return c
}

// Constants returns every constant mentioned by the query (head and
// equality list), sorted and deduplicated.  The paper's proofs repeatedly
// pick values "not among any constants in the queries"; this is that set.
func (q *Query) Constants() []value.Value {
	var s value.Set
	for _, t := range q.Head {
		if t.IsConst {
			s.Add(t.Const)
		}
	}
	for _, e := range q.Eqs {
		if e.Right.IsConst {
			s.Add(e.Right.Const)
		}
	}
	return s.Values()
}

// RelationsUsed returns the distinct relation names in the body, sorted.
func (q *Query) RelationsUsed() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range q.Body {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks the query against a schema: known relations, matching
// arities, globally distinct placeholder variables, safe head (every head
// variable occurs in the body), equality variables occurring in the body
// (the paper requires this), type correctness of every equality and
// constant, and no labeled null among the constants: nulls belong to
// canonical databases.  It reads the query's compiled form
// (Compiled.Check).
func (q *Query) Validate(s *schema.Schema) error {
	c := Compile(q)
	defer c.Release()
	return c.Check(q, s)
}

// HeadType infers the answer type (the "type of the view") against a
// schema.  Validate must succeed first.  A head variable takes the type
// of its body position; should an invalid query reuse a placeholder,
// the last occurrence in body order decides.
func (q *Query) HeadType(s *schema.Schema) ([]value.Type, error) {
	c := Compile(q)
	defer c.Release()
	c.ResolveTypes(q, s)
	return c.HeadType(q)
}

// String renders the query in the paper's syntax:
//
//	Q(X, Y) :- R(X, Z), S(W, Y), Z = W, X = T1:3.
func (q *Query) String() string {
	head := q.HeadRel
	if head == "" {
		head = "Q"
	}
	// Size the builder for everything but constants, which are rare.
	n := len(head) + len(") :- .") + 2*len(q.Head)
	for _, t := range q.Head {
		n += len(t.Var)
	}
	for _, a := range q.Body {
		n += a.textLen() + 2
	}
	for _, e := range q.Eqs {
		n += len(e.Left) + len(e.Right.Var) + 5
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(head)
	b.WriteByte('(')
	for i, t := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		t.writeTo(&b)
	}
	b.WriteString(") :- ")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		a.writeTo(&b)
	}
	for _, e := range q.Eqs {
		b.WriteString(", ")
		b.WriteString(string(e.Left))
		b.WriteString(" = ")
		e.Right.writeTo(&b)
	}
	b.WriteByte('.')
	return b.String()
}

// Identity returns the identity query for relation r: R(X1..Xn) :- R(X1..Xn).
// β∘α = id is decided by comparing compositions against these.
func Identity(r *schema.Relation) *Query {
	q := &Query{HeadRel: r.Name}
	atom := Atom{Rel: r.Name}
	for i := range r.Attrs {
		v := Var(fmt.Sprintf("X%d", i))
		atom.Vars = append(atom.Vars, v)
		q.Head = append(q.Head, Term{Var: v})
	}
	q.Body = []Atom{atom}
	return q
}
