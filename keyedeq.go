// Package keyedeq is a complete, from-scratch implementation of
// "Conjunctive Query Equivalence of Keyed Relational Schemas"
// (Albert, Ioannidis, Ramakrishnan — PODS 1997): the paper's conjunctive
// query language with equality selections, keyed relational schemas,
// query mappings, and the decision procedures its theory induces.
//
// The headline result, Theorem 13, states that two keyed schemas are
// conjunctive query equivalent if and only if they are identical up to
// renaming and re-ordering of attributes and relations.  This package
// exposes that as Equivalent (a near-linear canonical-form test) together
// with certificate construction (EquivalentWithWitness), full symbolic
// verification of dominance pairs (VerifyDominance), the κ-reduction of
// Theorem 9 (KappaReduction), conjunctive query containment and
// equivalence with and without key dependencies (Contained,
// EquivalentQueries), query minimization (MinimizeQuery), the chase, and
// the keys+referential-integrity transformations of the paper's
// introduction (subpackage behavior re-exported via MoveAttribute).
//
// # Quick start
//
//	s1 := keyedeq.MustParseSchema("employee(ss*:T1, name:T2)")
//	s2 := keyedeq.MustParseSchema("emp(id*:T1, nm:T2)")
//	keyedeq.Equivalent(s1, s2) // true: identical up to renaming
//
// Schemas are written one relation per line with key attributes starred
// and attribute types T1, T2, ...; conjunctive queries use the paper's
// Datalog-style syntax:
//
//	V(X, Y) :- R(X, Z), S(W, Y), Z = W, X = T1:3.
package keyedeq

import (
	"context"

	"keyedeq/internal/acyclic"
	"keyedeq/internal/bag"
	"keyedeq/internal/chase"
	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/dominance"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/ind"
	"keyedeq/internal/instance"
	"keyedeq/internal/mapping"
	"keyedeq/internal/program"
	"keyedeq/internal/schema"
	"keyedeq/internal/ucq"
	"keyedeq/internal/value"
)

// Core model types, aliased from the implementation packages so the
// whole API is reachable from this single import.
type (
	// Schema is a relational database schema: an ordered list of
	// relation schemes, optionally keyed.
	Schema = schema.Schema
	// Relation is one relation scheme (name, typed attributes, key).
	Relation = schema.Relation
	// Attribute is a named, typed column.
	Attribute = schema.Attribute
	// Isomorphism witnesses that two schemas are identical up to
	// renaming and re-ordering.
	Isomorphism = schema.Isomorphism

	// Value is an atomic constant of some attribute type, or a labeled
	// null of a canonical database.
	Value = value.Value
	// Type identifies one of the disjoint attribute types.
	Type = value.Type
	// Allocator hands out fresh constants per type.
	Allocator = value.Allocator
	// Choice is the paper's choice function f from types to constants.
	Choice = value.Choice

	// Database is a database instance: one relation instance per scheme.
	Database = instance.Database
	// Tuple is one row.
	Tuple = instance.Tuple

	// Query is a conjunctive query with equality selections in the
	// paper's restricted Datalog syntax.
	Query = cq.Query
	// Var is a query variable.
	Var = cq.Var
	// Term is a variable or constant.
	Term = cq.Term
	// Atom is one relation occurrence in a query body.
	Atom = cq.Atom
	// Equality is one predicate of the equality list.
	Equality = cq.Equality
	// Received describes what a head attribute receives (the paper's
	// "receives" analysis).
	Received = cq.Received

	// Mapping is a query mapping between schemas: one conjunctive view
	// per destination relation.
	Mapping = mapping.Mapping

	// FD is a schema-level functional dependency.
	FD = fd.FD
	// FDAttr names an attribute in an FD.
	FDAttr = fd.Attr

	// IND is an inclusion dependency (referential integrity constraint).
	IND = ind.IND
	// INDRef names a relation column list in an inclusion dependency.
	INDRef = ind.Ref
	// ConstrainedSchema pairs a schema with inclusion dependencies.
	ConstrainedSchema = ind.Constrained
	// MoveResult is the outcome of an attribute migration.
	MoveResult = ind.MoveResult

	// TGD is a tuple-generating dependency (inclusion dependencies in
	// dependency form), chased alongside the key EGDs.
	TGD = chase.TGD
	// TGDAtom is one atom of a TGD.
	TGDAtom = chase.TGDAtom

	// Homomorphism is a Chandra–Merlin containment certificate.
	Homomorphism = containment.Homomorphism

	// UCQ is a union of conjunctive queries.
	UCQ = ucq.Query

	// Program is a non-recursive Datalog program (layered UCQ views).
	Program = program.Program
	// ProgramView is one stratum of a Program.
	ProgramView = program.View

	// Witness certifies an equivalence with mappings in both directions.
	Witness = dominance.Witness
	// SearchBounds bound the semantic equivalence search.
	SearchBounds = dominance.SearchBounds
	// SearchStats reports the work a search did.
	SearchStats = dominance.SearchStats
	// SearchOptions set the search's workers and its equivalence
	// decider (an EnginePool's Equiv caches verdicts).
	SearchOptions = dominance.SearchOptions
	// ContainmentStats reports homomorphism/chase work.
	ContainmentStats = containment.Stats

	// EquivFunc is the pluggable equivalence decider shape
	// (SearchOptions.Equiv, EnginePool.Equiv); its context carries
	// cancellation and deadlines into the decision.
	EquivFunc = mapping.EquivFunc

	// Engine is the parallel batch equivalence/containment engine with
	// canonical-query caching.
	Engine = engine.Engine
	// EngineOptions configure an Engine (workers, cache size, job
	// timeout, injected clock).
	EngineOptions = engine.Options
	// EngineJob is one decision request in an engine batch.
	EngineJob = engine.Job
	// EngineReport aggregates an engine batch run.
	EngineReport = engine.Report
	// EnginePool decides over many (schema, deps) pairs through one
	// bounded verdict cache.
	EnginePool = engine.Pool
	// EngineCacheStats snapshots an engine's verdict cache.
	EngineCacheStats = engine.CacheStats
)

// ---- Schemas ----

// ParseSchema reads the textual schema format: one relation per line,
// "name(attr*:T1, attr:T2, ...)" with key attributes starred.
func ParseSchema(text string) (*Schema, error) { return schema.Parse(text) }

// MustParseSchema is ParseSchema but panics on error.
func MustParseSchema(text string) *Schema { return schema.MustParse(text) }

// Isomorphic reports whether two schemas are identical up to renaming and
// re-ordering of attributes and relations.
func Isomorphic(s1, s2 *Schema) bool { return schema.Isomorphic(s1, s2) }

// FindIsomorphism returns a witness for Isomorphic, if one exists.
func FindIsomorphism(s1, s2 *Schema) (*Isomorphism, bool) {
	return schema.FindIsomorphism(s1, s2)
}

// CanonicalForm returns the canonical form deciding isomorphism: equal
// canonical forms ⟺ isomorphic schemas.
func CanonicalForm(s *Schema) string { return schema.CanonicalForm(s) }

// Kappa returns κ(S) — the unkeyed key-projection schema — and, per
// relation, the original positions of the kept attributes.
func Kappa(s *Schema) (*Schema, [][]int) { return schema.Kappa(s) }

// ---- Instances ----

// NewDatabase returns an empty instance of s.
func NewDatabase(s *Schema) *Database { return instance.NewDatabase(s) }

// ProjectKappa projects a database instance onto κ(S).
func ProjectKappa(d *Database, kschema *Schema, pos [][]int) *Database {
	return instance.ProjectKappa(d, kschema, pos)
}

// KeyFDs returns the key dependencies of a keyed schema as functional
// dependencies (the EGDs used by the chase-based procedures).
func KeyFDs(s *Schema) []FD { return fd.KeyFDs(s) }

// ---- Queries ----

// ParseQuery reads a conjunctive query in the paper's syntax, e.g.
// "V(X, Y) :- R(X, Z), S(W, Y), Z = W.".
func ParseQuery(text string) (*Query, error) { return cq.Parse(text) }

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(text string) *Query { return cq.MustParse(text) }

// EvalQuery evaluates q over d.
func EvalQuery(q *Query, d *Database) (*instance.Relation, error) { return cq.Eval(q, d) }

// IdentityQuery returns R(X1..Xn) :- R(X1..Xn).
func IdentityQuery(r *Relation) *Query { return cq.Identity(r) }

// Receives computes, per head attribute of q, the schema attributes and
// constants it receives (the paper's §2 analysis).
func Receives(q *Query) []Received { return cq.Receives(q) }

// IJSaturated reports whether every relation in q's body is ij-saturated.
func IJSaturated(q *Query) bool { return cq.IJSaturated(q) }

// Saturate adds the missing identity join conditions (the paper's q̂
// construction); it rejects queries with selections or non-identity
// joins.
func Saturate(q *Query) (*Query, error) { return cq.Saturate(q) }

// ToProduct converts an ij-saturated query into the equivalent product
// query of Lemma 1.
func ToProduct(q *Query) (*Query, error) { return cq.ToProduct(q) }

// ProductUnder builds Lemma 2's under-approximating product query q̃.
func ProductUnder(q *Query) (*Query, error) { return cq.ProductUnder(q) }

// QueryToSQL renders a conjunctive query as a SQL SELECT DISTINCT
// statement over the schema (for display and interoperability).
func QueryToSQL(q *Query, s *Schema) (string, error) { return cq.ToSQL(q, s) }

// IsAcyclic reports whether the query is α-acyclic (GYO reduction).
func IsAcyclic(q *Query) bool { return acyclic.IsAcyclic(q) }

// EvalBag evaluates under bag semantics: each answer with its number of
// derivations.
func EvalBag(q *Query, d *Database) (bag.Counts, error) { return bag.Eval(q, d) }

// BagEquivalent decides bag equivalence of conjunctive queries — by
// Chaudhuri–Vardi, query isomorphism; much more rigid than set
// equivalence.
func BagEquivalent(q1, q2 *Query) bool { return bag.BagEquivalent(q1, q2) }

// EvalAcyclic evaluates with Yannakakis' semijoin algorithm when the
// query is acyclic (full reducer first, so the final join never explores
// dead ends) and falls back to plain evaluation otherwise.  The answer
// always equals EvalQuery's.
func EvalAcyclic(q *Query, d *Database) (*instance.Relation, acyclic.Stats, error) {
	return acyclic.Eval(q, d)
}

// ---- Containment and equivalence of queries ----

// Contained reports q1 ⊑ q2 over all instances of s (Chandra–Merlin).
func Contained(q1, q2 *Query, s *Schema) (bool, error) {
	return containment.Contained(q1, q2, s)
}

// ContainedUnder reports q1 ⊑ q2 over instances satisfying deps (for key
// dependencies pass KeyFDs(s)); decided by chasing the canonical
// database.
func ContainedUnder(q1, q2 *Query, s *Schema, deps []FD) (bool, ContainmentStats, error) {
	return containment.ContainedUnder(q1, q2, s, deps)
}

// EquivalentQueries reports q1 ≡ q2 over all instances of s.
func EquivalentQueries(q1, q2 *Query, s *Schema) (bool, error) {
	return containment.Equivalent(q1, q2, s)
}

// EquivalentQueriesUnder reports q1 ≡ q2 under deps.
func EquivalentQueriesUnder(q1, q2 *Query, s *Schema, deps []FD) (bool, ContainmentStats, error) {
	return containment.EquivalentUnder(q1, q2, s, deps)
}

// MinimizeQuery computes a core of q (an equivalent query with minimal
// body), optionally under dependencies.
func MinimizeQuery(q *Query, s *Schema, deps []FD) (*Query, error) {
	return containment.Minimize(q, s, deps)
}

// ContainedUnderTheory reports q1 ⊑ q2 over instances satisfying both
// the EGDs (keys/FDs) and the TGDs (inclusion dependencies).  The TGD
// set should be weakly acyclic (see WeaklyAcyclic) so the chase
// terminates; maxRounds ≤ 0 selects a default bound.
func ContainedUnderTheory(q1, q2 *Query, s *Schema, egds []FD, tgds []TGD, maxRounds int) (bool, ContainmentStats, error) {
	return containment.ContainedUnderTheory(q1, q2, s, egds, tgds, maxRounds)
}

// EquivalentQueriesUnderTheory reports mutual containment under the
// full dependency theory.
func EquivalentQueriesUnderTheory(q1, q2 *Query, s *Schema, egds []FD, tgds []TGD, maxRounds int) (bool, ContainmentStats, error) {
	return containment.EquivalentUnderTheory(q1, q2, s, egds, tgds, maxRounds)
}

// WeaklyAcyclic reports whether the TGD set guarantees chase
// termination (the standard position-graph test).
func WeaklyAcyclic(s *Schema, tgds []TGD) bool { return chase.WeaklyAcyclic(s, tgds) }

// ViewFDHolds decides whether the FD X → Y (head positions) holds on
// q(d) for every instance d satisfying deps — the two-copy chase test.
func ViewFDHolds(s *Schema, deps []FD, q *Query, x, y []int) (bool, error) {
	return chase.ViewFDHolds(s, deps, q, x, y)
}

// FindHomomorphism decides q1 ⊑ q2 (under deps, if given) and returns
// the explicit homomorphism certificate on success.
func FindHomomorphism(q1, q2 *Query, s *Schema, deps []FD) (Homomorphism, bool, error) {
	return containment.FindHomomorphism(q1, q2, s, deps)
}

// VerifyHomomorphism checks a containment certificate symbolically.
func VerifyHomomorphism(q1, q2 *Query, h Homomorphism, s *Schema, deps []FD) error {
	return containment.VerifyHomomorphism(q1, q2, h, s, deps)
}

// ---- Unions of conjunctive queries ----

// ParseUCQ reads a union of conjunctive queries, one disjunct per line.
func ParseUCQ(text string) (*UCQ, error) { return ucq.Parse(text) }

// EvalUCQ evaluates a union over a database.
func EvalUCQ(u *UCQ, d *Database) (*instance.Relation, error) { return ucq.Eval(u, d) }

// UCQContained reports u1 ⊑ u2 under deps (Sagiv–Yannakakis).
func UCQContained(u1, u2 *UCQ, s *Schema, deps []FD) (bool, error) {
	return ucq.Contained(u1, u2, s, deps)
}

// UCQEquivalent reports mutual UCQ containment.
func UCQEquivalent(u1, u2 *UCQ, s *Schema, deps []FD) (bool, error) {
	return ucq.Equivalent(u1, u2, s, deps)
}

// MinimizeUCQ drops redundant disjuncts and takes the core of each
// survivor.
func MinimizeUCQ(u *UCQ, s *Schema, deps []FD) (*UCQ, error) {
	return ucq.Minimize(u, s, deps)
}

// ---- Non-recursive Datalog programs ----

// ParseProgram reads a layered-view program over the base schema:
// "def view(attrs...)" declarations followed by their UCQ rules.
func ParseProgram(base *Schema, text string) (*Program, error) {
	return program.Parse(base, text)
}

// ProgramEquivalent reports whether two programs' views compute the same
// answers on every deps-satisfying base instance (unfold + UCQ
// equivalence).
func ProgramEquivalent(p1 *Program, view1 string, p2 *Program, view2 string, deps []FD) (bool, error) {
	return program.Equivalent(p1, view1, p2, view2, deps)
}

// ---- Query mappings ----

// NewMapping builds a query mapping src → dst with one view per dst
// relation, validating arity and types.
func NewMapping(src, dst *Schema, queries []*Query) (*Mapping, error) {
	return mapping.New(src, dst, queries)
}

// ParseMapping reads a query mapping from text: one view per line, named
// for the destination relation it defines.
func ParseMapping(src, dst *Schema, text string) (*Mapping, error) {
	return mapping.Parse(src, dst, text)
}

// IdentityMapping returns the identity mapping S → S.
func IdentityMapping(s *Schema) *Mapping { return mapping.IdentityMapping(s) }

// Compose returns outer ∘ inner by symbolic query substitution.
func Compose(outer, inner *Mapping) (*Mapping, error) { return mapping.Compose(outer, inner) }

// MappingFromIsomorphism builds the witness mappings (α, β) for two
// isomorphic schemas.
func MappingFromIsomorphism(s1, s2 *Schema, iso *Isomorphism) (alpha, beta *Mapping, err error) {
	return mapping.FromIsomorphism(s1, s2, iso)
}

// VerifyDominance checks that (α, β) establish dominance in the paper's
// sense: both mappings valid and β∘α = id on key-satisfying instances —
// decided symbolically.
func VerifyDominance(alpha, beta *Mapping) (bool, error) {
	return mapping.Dominates(alpha, beta)
}

// ---- Schema equivalence (the paper's main theorems) ----

// Equivalent reports whether two keyed schemas are conjunctive query
// equivalent — by Theorem 13, iff they are identical up to renaming and
// re-ordering of attributes and relations.
func Equivalent(s1, s2 *Schema) bool { return dominance.Equivalent(s1, s2) }

// EquivalentWithWitness additionally returns certificate mappings.
func EquivalentWithWitness(s1, s2 *Schema) (*Witness, bool, error) {
	return dominance.EquivalentWithWitness(s1, s2)
}

// ExplainEquivalence returns a human-readable account of the decision.
func ExplainEquivalence(s1, s2 *Schema) string { return dominance.Explain(s1, s2) }

// KappaReduction applies Theorem 9: from a dominance pair (α, β) for
// S1 ≼ S2 it constructs (α_κ, β_κ) establishing κ(S1) ≼ κ(S2).
func KappaReduction(alpha, beta *Mapping, choice *Choice) (alphaK, betaK *Mapping, err error) {
	return dominance.KappaReduction(alpha, beta, choice)
}

// VerifyKappaPair checks β_κ∘α_κ = id on κ-instances.
func VerifyKappaPair(alphaK, betaK *Mapping) (bool, error) {
	return dominance.VerifyKappaPair(alphaK, betaK)
}

// SearchEquivalence decides equivalence semantically by bounded
// enumeration of candidate mappings — exponential, and by Theorem 13
// never finds anything Isomorphic would not; provided for validation and
// experimentation.  Each direction walks the valid α's and checks the
// β views relation by relation.  ctx reaches every identity check, so
// cancellation and deadlines stop the underlying chase and homomorphism
// searches; opts sets the search's workers and the equivalence decider
// (the zero value is sequential, with EquivalentQueriesUnder's
// procedure; an EnginePool's Equiv caches verdicts).
func SearchEquivalence(ctx context.Context, s1, s2 *Schema, b SearchBounds, opts SearchOptions) (bool, SearchStats, error) {
	return dominance.SearchEquivalence(ctx, s1, s2, b, opts)
}

// DefaultSearchBounds are suitable for small schema spaces.
func DefaultSearchBounds() SearchBounds { return dominance.DefaultBounds() }

// ---- Batch engine ----

// NewEngine builds a batch equivalence/containment engine bound to s
// and deps; see EngineOptions for tuning.
func NewEngine(s *Schema, deps []FD, opts EngineOptions) *Engine {
	return engine.New(s, deps, opts)
}

// NewEnginePool builds an engine pool whose engines share opts and one
// verdict cache of opts.CacheSize entries, however many schemas they
// decide over; its Equiv method is a cached EquivFunc, a valid
// SearchOptions.Equiv.
func NewEnginePool(opts EngineOptions) *EnginePool { return engine.NewPool(opts) }

// CanonicalQueryKey returns the renaming-invariant canonical key of q —
// equal keys certify α-equivalence (variable renaming + atom
// reordering).  The schema may be nil; it only collapses always-empty
// queries to a shared key.
func CanonicalQueryKey(q *Query, s *Schema) (key string, exact bool) {
	c := engine.CanonicalizeQuery(q, s)
	return c.Key, c.Exact
}
