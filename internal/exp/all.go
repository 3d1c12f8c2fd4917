package exp

import (
	"keyedeq/internal/dominance"
	"keyedeq/internal/gen"
)

// Config scales the full suite.  Quick settings finish in seconds; Full
// settings stress the exponential corners.
type Config struct {
	Quick bool
}

// All regenerates every table and figure of the evaluation suite in
// order.
func All(cfg Config) []*Table {
	t1Space := gen.SchemaSpace{MaxRelations: 1, MaxAttrs: 2, Types: 2}
	t1Bounds := dominance.SearchBounds{MaxAtoms: 1, MaxEqs: 1, MaxViews: 2000, MaxPairs: 200_000}
	trials := 60
	chainMax, starMax, cliqueMax := 12, 12, 4
	chaseSizes := []int{100, 300, 1000}
	chaseDeps := []int{1, 4, 16}
	fdAttrs := []int{8, 16, 32}
	fdDeps := []int{8, 32, 128}
	searchAttrs := 3
	if !cfg.Quick {
		t1Space = gen.SchemaSpace{MaxRelations: 2, MaxAttrs: 2, Types: 2}
		t1Bounds = dominance.SearchBounds{MaxAtoms: 2, MaxEqs: 1, MaxViews: 20000, MaxPairs: 20_000_000}
		trials = 200
		chainMax, starMax, cliqueMax = 14, 14, 5
		chaseSizes = []int{100, 1000, 10000}
		chaseDeps = []int{1, 4, 16}
		fdAttrs = []int{8, 16, 32, 64}
		fdDeps = []int{8, 32, 128, 256}
		searchAttrs = 4
	}
	searchBounds := dominance.SearchBounds{MaxAtoms: 1, MaxEqs: 1, MaxViews: 20000, MaxPairs: 500_000}
	enginePairs, engineWorkers := 300, 0
	if !cfg.Quick {
		enginePairs = 1000
	}
	e1, _ := E1EngineBatch(enginePairs, engineWorkers, 0, 11, nil)
	h1, _ := H1HomSearch(enginePairs, 21, nil)
	return []*Table{
		T1TheoremExhaustive(t1Space, t1Bounds),
		T2SaturationProduct(trials, 1),
		TLemmas(trials, 2),
		T3Containment(chainMax, starMax, cliqueMax),
		T4Chase(chaseSizes, chaseDeps, 3),
		T5MappingIdentity(5, 4),
		T6KappaReduction(trials, 5),
		T7DecisionCompare(searchAttrs, searchBounds, 6),
		T8FDClosure(fdAttrs, fdDeps, 7),
		T9INDMigration(trials/4+5, 9),
		T10Capacity(4),
		T11Yannakakis([]int{2, 4, 6, 8}, 40),
		T12UCQContainment([]int{1, 2, 4, 8}, 3),
		e1,
		h1,
		F1ContainmentCurve(chainMax, starMax, cliqueMax),
		F2SearchSpace(searchAttrs+1, searchBounds),
		F3ChaseCurve(chaseSizes, chaseDeps, 8),
	}
}
