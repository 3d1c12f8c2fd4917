package chase

import (
	"fmt"

	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
)

// Tuple-generating dependencies (TGDs) extend the chase beyond the
// paper's key dependencies to the referential integrity constraints of
// its introduction: an inclusion dependency R[X] ⊆ S[Y] is the TGD
// ∀x̄ R(x̄) → ∃z̄ S(...), and chasing with both EGDs and TGDs decides
// containment — hence mapping round-trips — under keys *plus* inclusion
// dependencies, which is exactly what makes the paper's §1 transformation
// provable rather than merely testable.

// TGDAtom is one atom of a TGD, with named variables (no constants).
type TGDAtom struct {
	Rel  string
	Vars []string
}

// TGD is a tuple-generating dependency Body → Head.  Variables shared
// between body and head are universally quantified (the frontier); head
// variables absent from the body are existential.
type TGD struct {
	Body []TGDAtom
	Head []TGDAtom
}

// String renders "R(x, y) -> S(y, ?z)".
func (t TGD) String() string {
	str := func(atoms []TGDAtom) string {
		out := ""
		for i, a := range atoms {
			if i > 0 {
				out += ", "
			}
			out += a.Rel + "("
			for j, v := range a.Vars {
				if j > 0 {
					out += ", "
				}
				out += v
			}
			out += ")"
		}
		return out
	}
	return str(t.Body) + " -> " + str(t.Head)
}

// Validate checks arities and type consistency of the dependency under s:
// every occurrence of a variable must have one attribute type.
func (t TGD) Validate(s *schema.Schema) error {
	if len(t.Body) == 0 || len(t.Head) == 0 {
		return fmt.Errorf("chase: TGD needs a body and a head")
	}
	types := map[string]int64{}
	check := func(atoms []TGDAtom) error {
		for _, a := range atoms {
			r := s.Relation(a.Rel)
			if r == nil {
				return fmt.Errorf("chase: TGD uses unknown relation %q", a.Rel)
			}
			if len(a.Vars) != r.Arity() {
				return fmt.Errorf("chase: TGD atom %s has %d vars, want %d", a.Rel, len(a.Vars), r.Arity())
			}
			for i, v := range a.Vars {
				if v == "" {
					return fmt.Errorf("chase: TGD atom %s has an empty variable", a.Rel)
				}
				want := int64(r.Attrs[i].Type)
				if prev, ok := types[v]; ok && prev != want {
					return fmt.Errorf("chase: TGD variable %s used at types T%d and T%d", v, prev, want)
				}
				types[v] = want
			}
		}
		return nil
	}
	if err := check(t.Body); err != nil {
		return err
	}
	return check(t.Head)
}

// frontier returns the universally quantified variables that the head
// exports: body variables that also occur in the head.  (This is the
// frontier of the standard weak-acyclicity definition.)
func (t TGD) frontier() map[string]bool {
	inBody := map[string]bool{}
	for _, a := range t.Body {
		for _, v := range a.Vars {
			inBody[v] = true
		}
	}
	f := map[string]bool{}
	for _, a := range t.Head {
		for _, v := range a.Vars {
			if inBody[v] {
				f[v] = true
			}
		}
	}
	return f
}

// RunWithTGDs chases the tableau with EGDs and TGDs to fixpoint using the
// standard (restricted) chase: in each round, close under the EGDs, then
// fire every TGD trigger whose head is not already satisfied.  maxRounds
// bounds the TGD rounds (the chase need not terminate for arbitrary
// TGDs); exceeding it returns an error.  Use WeaklyAcyclic to check
// termination is guaranteed first.
func (t *Tableau) RunWithTGDs(egds []fd.FD, tgds []TGD, maxRounds int) (Stats, error) {
	var total Stats
	for _, d := range tgds {
		if err := d.Validate(t.Schema); err != nil {
			return total, err
		}
	}
	for round := 0; ; round++ {
		st, err := t.Run(egds)
		total.Iterations += st.Iterations
		total.Merges += st.Merges
		total.Revisited += st.Revisited
		if err != nil || t.Failed() {
			return total, err
		}
		fired := 0
		for _, d := range tgds {
			n, err := t.fireTGD(d)
			if err != nil {
				return total, err
			}
			fired += n
		}
		if fired == 0 {
			return total, nil
		}
		if round >= maxRounds {
			return total, fmt.Errorf("chase: TGD chase did not terminate within %d rounds", maxRounds)
		}
	}
}

// fireTGD finds every homomorphism of d.Body into the tableau and, when
// the head has no extension homomorphism, adds head rows with fresh
// nulls for the existential variables.  It returns the number of
// triggers fired.
func (t *Tableau) fireTGD(d TGD) (int, error) {
	// Collect current rows once; rows added by this firing pass are not
	// re-matched until the next round (standard round-based chase).
	snapshot := make([]row, len(t.rows))
	copy(snapshot, t.rows)

	var bindings []map[string]int // variable -> term representative
	var match func(i int, binding map[string]int)
	match = func(i int, binding map[string]int) {
		if i == len(d.Body) {
			cp := make(map[string]int, len(binding))
			for k, v := range binding {
				cp[k] = v
			}
			bindings = append(bindings, cp)
			return
		}
		atom := d.Body[i]
		ri := t.Schema.RelationIndex(atom.Rel)
		for _, r := range snapshot {
			if r.rel != ri {
				continue
			}
			var added []string
			ok := true
			for p, v := range atom.Vars {
				rep := t.find(int(r.cells[p]))
				if prev, bound := binding[v]; bound {
					if t.find(prev) != rep {
						ok = false
						break
					}
					continue
				}
				binding[v] = rep
				added = append(added, v)
			}
			if ok {
				match(i+1, binding)
			}
			for _, v := range added {
				delete(binding, v)
			}
		}
	}
	match(0, map[string]int{})

	fired := 0
	for _, b := range bindings {
		if t.headSatisfied(d, b, snapshot) {
			continue
		}
		// Fire: add the head atoms with fresh nulls for existentials.
		ext := map[string]Term{}
		for _, a := range d.Head {
			ri := t.Schema.RelationIndex(a.Rel)
			rel := t.Schema.Relations[ri]
			cells := make([]Term, len(a.Vars))
			for p, v := range a.Vars {
				if rep, ok := b[v]; ok {
					cells[p] = Term(rep)
					continue
				}
				tm, ok := ext[v]
				if !ok {
					tm = t.NewNull(rel.Attrs[p].Type)
					ext[v] = tm
				}
				cells[p] = tm
			}
			if err := t.AddRow(a.Rel, cells); err != nil {
				return fired, err
			}
		}
		fired++
	}
	return fired, nil
}

// headSatisfied reports whether the head of d has a homomorphic extension
// of binding b into the snapshot rows.
func (t *Tableau) headSatisfied(d TGD, b map[string]int, snapshot []row) bool {
	var match func(i int, binding map[string]int) bool
	match = func(i int, binding map[string]int) bool {
		if i == len(d.Head) {
			return true
		}
		atom := d.Head[i]
		ri := t.Schema.RelationIndex(atom.Rel)
		for _, r := range snapshot {
			if r.rel != ri {
				continue
			}
			var added []string
			ok := true
			for p, v := range atom.Vars {
				rep := t.find(int(r.cells[p]))
				if prev, bound := binding[v]; bound {
					if t.find(prev) != rep {
						ok = false
						break
					}
					continue
				}
				binding[v] = rep
				added = append(added, v)
			}
			if ok && match(i+1, binding) {
				return true
			}
			for _, v := range added {
				delete(binding, v)
			}
		}
		return false
	}
	binding := make(map[string]int, len(b))
	for k, v := range b {
		binding[k] = v
	}
	return match(0, binding)
}

// WeaklyAcyclic reports whether the TGD set is weakly acyclic — the
// standard sufficient condition for chase termination.  The dependency
// graph has a node per schema position (relation, attribute); for each
// TGD, each frontier occurrence in the body with position p:
//
//   - a regular edge p → q for every occurrence q of the same variable in
//     the head, and
//   - a special edge p → q for every position q of an existential
//     variable in the head.
//
// The set is weakly acyclic iff no cycle passes through a special edge.
func WeaklyAcyclic(s *schema.Schema, tgds []TGD) bool {
	type pos struct {
		rel string
		p   int
	}
	type edge struct {
		to      pos
		special bool
	}
	adj := map[pos][]edge{}
	for _, d := range tgds {
		frontier := d.frontier()
		// Body positions per frontier variable.
		bodyPos := map[string][]pos{}
		for _, a := range d.Body {
			for p, v := range a.Vars {
				bodyPos[v] = append(bodyPos[v], pos{a.Rel, p})
			}
		}
		for _, a := range d.Head {
			for p, v := range a.Vars {
				if frontier[v] {
					for _, bp := range bodyPos[v] {
						adj[bp] = append(adj[bp], edge{pos{a.Rel, p}, false})
					}
					continue
				}
				// Existential: special edge from every frontier body
				// position of the TGD.
				for fv := range frontier {
					for _, bp := range bodyPos[fv] {
						adj[bp] = append(adj[bp], edge{pos{a.Rel, p}, true})
					}
				}
			}
		}
	}
	// A cycle through a special edge exists iff some special edge u→v has
	// a path v →* u.  Check reachability per special edge (graphs here
	// are tiny).
	reach := func(from, to pos) bool {
		seen := map[pos]bool{from: true}
		stack := []pos{from}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cur == to {
				return true
			}
			for _, e := range adj[cur] {
				if !seen[e.to] {
					seen[e.to] = true
					stack = append(stack, e.to)
				}
			}
		}
		return false
	}
	for u, edges := range adj {
		for _, e := range edges {
			if e.special && reach(e.to, u) {
				return false
			}
		}
	}
	return true
}
