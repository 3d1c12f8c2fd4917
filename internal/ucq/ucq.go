// Package ucq extends the paper's query language to unions of
// conjunctive queries (UCQs) — the smallest class closed under the
// paper's operations plus union.  Containment is decided by the
// Sagiv–Yannakakis criterion: ∪pᵢ ⊑ ∪qⱼ iff every disjunct pᵢ is
// contained in the union, which the canonical-database test decides by
// evaluating every qⱼ over pᵢ's (chased) frozen database.  Minimization
// removes disjuncts contained in the union of the others and takes the
// core of each survivor.
package ucq

import (
	"context"
	"fmt"
	"strings"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/instance"
	"keyedeq/internal/invariant"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Query is a union of conjunctive queries with identical head types.
type Query struct {
	Disjuncts []*cq.Query
}

// Parse reads a UCQ: one conjunctive query per line (blank lines and
// '#' comments ignored).
func Parse(text string) (*Query, error) {
	u := &Query{}
	for lineno, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := cq.Parse(line)
		if err != nil {
			return nil, fmt.Errorf("ucq: line %d: %v", lineno+1, err)
		}
		u.Disjuncts = append(u.Disjuncts, q)
	}
	if len(u.Disjuncts) == 0 {
		return nil, fmt.Errorf("ucq: no disjuncts")
	}
	return u, nil
}

// MustParse is Parse but panics on error.
func MustParse(text string) *Query {
	u, err := Parse(text)
	invariant.Must(err)
	return u
}

// String renders one disjunct per line.
func (u *Query) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\n")
}

// Validate checks every disjunct and that the head types agree.
func (u *Query) Validate(s *schema.Schema) error {
	if len(u.Disjuncts) == 0 {
		return fmt.Errorf("ucq: no disjuncts")
	}
	var ht []value.Type
	for i, q := range u.Disjuncts {
		if err := q.Validate(s); err != nil {
			return fmt.Errorf("ucq: disjunct %d: %v", i, err)
		}
		t, err := q.HeadType(s)
		if err != nil {
			return err
		}
		if ht == nil {
			ht = t
			continue
		}
		if len(t) != len(ht) {
			return fmt.Errorf("ucq: disjunct %d has arity %d, want %d", i, len(t), len(ht))
		}
		for p := range t {
			if t[p] != ht[p] {
				return fmt.Errorf("ucq: disjunct %d position %d has type %v, want %v", i, p, t[p], ht[p])
			}
		}
	}
	return nil
}

// HeadType returns the union's answer type.
func (u *Query) HeadType(s *schema.Schema) ([]value.Type, error) {
	if err := u.Validate(s); err != nil {
		return nil, err
	}
	return u.Disjuncts[0].HeadType(s)
}

// Eval evaluates the union: the set union of the disjuncts' answers.
func Eval(u *Query, d *instance.Database) (*instance.Relation, error) {
	var out *instance.Relation
	for _, q := range u.Disjuncts {
		a, err := cq.Eval(q, d)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = a
			continue
		}
		for _, t := range a.Tuples() {
			if err := out.Insert(t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Contained reports u1 ⊑ u2 over all instances of s satisfying deps
// (nil deps = all instances), by Sagiv–Yannakakis: each disjunct of u1
// must be contained in the union u2, decided on its chased canonical
// database.
func Contained(u1, u2 *Query, s *schema.Schema, deps []fd.FD) (bool, error) {
	if err := u1.Validate(s); err != nil {
		return false, err
	}
	if err := u2.Validate(s); err != nil {
		return false, err
	}
	t1, err := u1.HeadType(s)
	if err != nil {
		return false, err
	}
	t2, err := u2.HeadType(s)
	if err != nil {
		return false, err
	}
	if len(t1) != len(t2) {
		return false, fmt.Errorf("ucq: arity %d vs %d", len(t1), len(t2))
	}
	for p := range t1 {
		if t1[p] != t2[p] {
			return false, fmt.Errorf("ucq: head type mismatch at %d", p)
		}
	}
	for _, p := range u1.Disjuncts {
		ok, err := disjunctContainedInUnion(p, u2, s, deps)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// disjunctContainedInUnion decides p ⊑ ∪qⱼ on p's canonical database.
func disjunctContainedInUnion(p *cq.Query, u *Query, s *schema.Schema, deps []fd.FD) (bool, error) {
	ctx := context.Background()
	c := containment.NewCanonicalDB(ctx, p, s, deps)
	for _, q := range u.Disjuncts {
		ok, _, err := c.ContainedIn(ctx, q)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// Equivalent reports mutual containment.
func Equivalent(u1, u2 *Query, s *schema.Schema, deps []fd.FD) (bool, error) {
	ok, err := Contained(u1, u2, s, deps)
	if err != nil || !ok {
		return ok, err
	}
	return Contained(u2, u1, s, deps)
}

// Minimize returns an equivalent UCQ with redundant disjuncts removed
// (those contained in the union of the remaining ones) and each survivor
// replaced by its core.
func Minimize(u *Query, s *schema.Schema, deps []fd.FD) (*Query, error) {
	if err := u.Validate(s); err != nil {
		return nil, err
	}
	kept := append([]*cq.Query(nil), u.Disjuncts...)
	for i := 0; i < len(kept); i++ {
		if len(kept) == 1 {
			break
		}
		rest := &Query{}
		rest.Disjuncts = append(rest.Disjuncts, kept[:i]...)
		rest.Disjuncts = append(rest.Disjuncts, kept[i+1:]...)
		ok, err := disjunctContainedInUnion(kept[i], rest, s, deps)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept[:i], kept[i+1:]...)
			i--
		}
	}
	out := &Query{Disjuncts: make([]*cq.Query, len(kept))}
	for i, q := range kept {
		core, err := containment.Minimize(q, s, deps)
		if err != nil {
			return nil, err
		}
		out.Disjuncts[i] = core
	}
	return out, nil
}
