// Package ra implements conjunctive relational algebra with equality
// selections — the paper's query language on its algebraic side: the
// operators select (column = column and column = constant), project
// (extended with constant columns, so heads may contain constants as the
// paper's syntax allows), equijoin, and cartesian product, over named
// relations.
//
// The package provides evaluation over database instances, type
// inference, and the two translations that show the algebra and the
// paper's Datalog-style syntax express the same queries: FromCQ compiles
// a conjunctive query to an algebra expression, and ToCQ extracts a
// conjunctive query from any expression.
package ra

import (
	"fmt"
	"strings"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Expr is a conjunctive relational algebra expression.
type Expr interface {
	// Type returns the output column types under s.
	Type(s *schema.Schema) ([]value.Type, error)
	// String renders the expression.
	String() string
}

// Rel is a leaf: the named base relation.
type Rel struct {
	Name string
}

// SelectEq is σ_{left = right}(E): keep rows whose two columns agree.
type SelectEq struct {
	E           Expr
	Left, Right int
}

// SelectConst is σ_{col = c}(E).
type SelectConst struct {
	E     Expr
	Col   int
	Const value.Value
}

// Product is E × F (column concatenation).
type Product struct {
	L, R Expr
}

// Join is the equijoin E ⋈_{lcol = rcol} F, keeping all columns of both
// inputs: σ_{lcol = |E|+rcol}(E × F).
type Join struct {
	L, R       Expr
	LCol, RCol int
}

// ProjCol is one output column of a projection: either an input column
// index or a constant (extended projection, mirroring constants in query
// heads).
type ProjCol struct {
	IsConst bool
	Col     int
	Const   value.Value
}

// Col makes a column reference.
func Col(i int) ProjCol { return ProjCol{Col: i} }

// Const makes a constant output column.
func Const(v value.Value) ProjCol { return ProjCol{IsConst: true, Const: v} }

// Project is π_{cols}(E) with possible repetition and constants.
type Project struct {
	E    Expr
	Cols []ProjCol
}

func (r *Rel) Type(s *schema.Schema) ([]value.Type, error) {
	rel := s.Relation(r.Name)
	if rel == nil {
		return nil, fmt.Errorf("ra: unknown relation %q", r.Name)
	}
	return rel.Type(), nil
}

func (r *Rel) String() string { return r.Name }

func (e *SelectEq) Type(s *schema.Schema) ([]value.Type, error) {
	ts, err := e.E.Type(s)
	if err != nil {
		return nil, err
	}
	if err := checkCol(e.Left, len(ts)); err != nil {
		return nil, err
	}
	if err := checkCol(e.Right, len(ts)); err != nil {
		return nil, err
	}
	if ts[e.Left] != ts[e.Right] {
		return nil, fmt.Errorf("ra: select compares columns of types %v and %v", ts[e.Left], ts[e.Right])
	}
	return ts, nil
}

func (e *SelectEq) String() string {
	return fmt.Sprintf("σ[%d=%d](%s)", e.Left, e.Right, e.E)
}

func (e *SelectConst) Type(s *schema.Schema) ([]value.Type, error) {
	ts, err := e.E.Type(s)
	if err != nil {
		return nil, err
	}
	if err := checkCol(e.Col, len(ts)); err != nil {
		return nil, err
	}
	if ts[e.Col] != e.Const.Type {
		return nil, fmt.Errorf("ra: select compares column type %v with constant %v", ts[e.Col], e.Const)
	}
	return ts, nil
}

func (e *SelectConst) String() string {
	return fmt.Sprintf("σ[%d=%s](%s)", e.Col, e.Const, e.E)
}

func (e *Product) Type(s *schema.Schema) ([]value.Type, error) {
	lt, err := e.L.Type(s)
	if err != nil {
		return nil, err
	}
	rt, err := e.R.Type(s)
	if err != nil {
		return nil, err
	}
	return append(append([]value.Type{}, lt...), rt...), nil
}

func (e *Product) String() string { return fmt.Sprintf("(%s × %s)", e.L, e.R) }

func (e *Join) Type(s *schema.Schema) ([]value.Type, error) {
	lt, err := e.L.Type(s)
	if err != nil {
		return nil, err
	}
	rt, err := e.R.Type(s)
	if err != nil {
		return nil, err
	}
	if err := checkCol(e.LCol, len(lt)); err != nil {
		return nil, err
	}
	if err := checkCol(e.RCol, len(rt)); err != nil {
		return nil, err
	}
	if lt[e.LCol] != rt[e.RCol] {
		return nil, fmt.Errorf("ra: join compares types %v and %v", lt[e.LCol], rt[e.RCol])
	}
	return append(append([]value.Type{}, lt...), rt...), nil
}

func (e *Join) String() string {
	return fmt.Sprintf("(%s ⋈[%d=%d] %s)", e.L, e.LCol, e.RCol, e.R)
}

func (e *Project) Type(s *schema.Schema) ([]value.Type, error) {
	ts, err := e.E.Type(s)
	if err != nil {
		return nil, err
	}
	out := make([]value.Type, len(e.Cols))
	for i, c := range e.Cols {
		if c.IsConst {
			out[i] = c.Const.Type
			continue
		}
		if err := checkCol(c.Col, len(ts)); err != nil {
			return nil, err
		}
		out[i] = ts[c.Col]
	}
	return out, nil
}

func (e *Project) String() string {
	parts := make([]string, len(e.Cols))
	for i, c := range e.Cols {
		if c.IsConst {
			parts[i] = c.Const.String()
		} else {
			parts[i] = fmt.Sprint(c.Col)
		}
	}
	return fmt.Sprintf("π[%s](%s)", strings.Join(parts, ","), e.E)
}

func checkCol(i, n int) error {
	if i < 0 || i >= n {
		return fmt.Errorf("ra: column %d out of range (width %d)", i, n)
	}
	return nil
}

// Eval evaluates the expression over d, returning the result with a
// synthesized scheme.  The evaluator is the plain recursive one: every
// operator materializes its input before producing output.  No decision
// procedure runs on it, so it favours obviousness over speed.
func Eval(e Expr, d *instance.Database) (*instance.Relation, error) {
	ts, err := e.Type(d.Schema)
	if err != nil {
		return nil, err
	}
	rows, err := evalRows(e, d)
	if err != nil {
		return nil, err
	}
	scheme := &schema.Relation{Name: "out"}
	for i, t := range ts {
		scheme.Attrs = append(scheme.Attrs, schema.Attribute{Name: fmt.Sprintf("c%d", i), Type: t})
	}
	out := instance.NewRelation(scheme)
	for _, r := range rows {
		if err := out.Insert(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalRows evaluates e over d into rows, recursively.
func evalRows(e Expr, d *instance.Database) ([]instance.Tuple, error) {
	switch e := e.(type) {
	case *Rel:
		r := d.Relation(e.Name)
		if r == nil {
			return nil, fmt.Errorf("ra: unknown relation %q", e.Name)
		}
		return r.Tuples(), nil
	case *SelectEq:
		in, err := evalRows(e.E, d)
		if err != nil {
			return nil, err
		}
		var out []instance.Tuple
		for _, t := range in {
			if t[e.Left] == t[e.Right] {
				out = append(out, t)
			}
		}
		return out, nil
	case *SelectConst:
		in, err := evalRows(e.E, d)
		if err != nil {
			return nil, err
		}
		var out []instance.Tuple
		for _, t := range in {
			if t[e.Col] == e.Const {
				out = append(out, t)
			}
		}
		return out, nil
	case *Product:
		lt, err := evalRows(e.L, d)
		if err != nil {
			return nil, err
		}
		rt, err := evalRows(e.R, d)
		if err != nil {
			return nil, err
		}
		var out []instance.Tuple
		for _, l := range lt {
			for _, r := range rt {
				out = append(out, append(append(instance.Tuple{}, l...), r...))
			}
		}
		return out, nil
	case *Join:
		lt, err := evalRows(e.L, d)
		if err != nil {
			return nil, err
		}
		rt, err := evalRows(e.R, d)
		if err != nil {
			return nil, err
		}
		var out []instance.Tuple
		for _, l := range lt {
			for _, r := range rt {
				if l[e.LCol] == r[e.RCol] {
					out = append(out, append(append(instance.Tuple{}, l...), r...))
				}
			}
		}
		return out, nil
	case *Project:
		in, err := evalRows(e.E, d)
		if err != nil {
			return nil, err
		}
		var out []instance.Tuple
		for _, t := range in {
			row := make(instance.Tuple, len(e.Cols))
			for i, c := range e.Cols {
				if c.IsConst {
					row[i] = c.Const
				} else {
					row[i] = t[c.Col]
				}
			}
			out = append(out, row)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("ra: unknown expression %T", e)
	}
}
