package cq

import (
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
)

// Unit tests for the adaptive cost model: the tier-0 boundary, the
// selectivity estimate's edges, the pipeline-vs-scan tie-break, and
// the parallel gating thresholds.  They drive choosePlan through real
// compiled plans so the estimates exercise the same planStep shapes
// the runtime sees.

// costPlanFor compiles the plan choosePlan would see for q over d.
func costPlanFor(t *testing.T, q *Query, d *instance.Database) *searchPlan {
	t.Helper()
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		t.Fatal("query unsatisfiable")
	}
	rels, relIdxs, err := resolveRelations(q, d)
	if err != nil {
		t.Fatal(err)
	}
	pres := collectConstPrebindings(q, eq, nil)
	return buildPlan(q, rels, relIdxs, eq, pres)
}

// edgeDB builds a single-relation digraph database with the given edges.
func edgeDB(t *testing.T, edges [][2]int64) *instance.Database {
	t.Helper()
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	for _, e := range edges {
		d.MustInsert("E", val(1, e[0]), val(1, e[1]))
	}
	return d
}

// pathEdges returns n distinct edges i -> i+1.
func pathEdges(n int) [][2]int64 {
	edges := make([][2]int64, n)
	for i := range edges {
		edges[i] = [2]int64{int64(i + 1), int64(i + 2)}
	}
	return edges
}

func TestAllSmallBoundary(t *testing.T) {
	cfg := defaultCostConfig
	at := edgeDB(t, pathEdges(cfg.scanMaxCard))
	above := edgeDB(t, pathEdges(cfg.scanMaxCard+1))
	q := MustParse("V(X, Y) :- E(X, Y).")
	relsAt, _, err := resolveRelations(q, at)
	if err != nil {
		t.Fatal(err)
	}
	relsAbove, _, err := resolveRelations(q, above)
	if err != nil {
		t.Fatal(err)
	}
	if !allSmall(relsAt, &cfg) {
		t.Fatalf("relation with exactly %d rows must pass tier 0", cfg.scanMaxCard)
	}
	if allSmall(relsAbove, &cfg) {
		t.Fatalf("relation with %d rows must fail tier 0", cfg.scanMaxCard+1)
	}
}

func TestStepSelectivityEdges(t *testing.T) {
	cfg := defaultCostConfig
	// 12 rows: 3 distinct sources fanning out to 4 sinks each.
	var edges [][2]int64
	for a := int64(1); a <= 3; a++ {
		for b := int64(10); b < 14; b++ {
			edges = append(edges, [2]int64{a, b})
		}
	}
	d := edgeDB(t, edges)
	fr := d.Frozen().Relations[0]
	card := float64(fr.NumRows())

	// No bound positions: every row is a candidate.
	free := &planStep{relIdx: 0}
	if got := stepSelectivity(fr, free, &cfg); got != card {
		t.Fatalf("unkeyed step selectivity = %v, want %v", got, card)
	}

	// Keyed on the 3-distinct source column: card / 3 expected matches.
	bySrc := &planStep{relIdx: 0, keyPos: []int{0}}
	if got := stepSelectivity(fr, bySrc, &cfg); got != card/3 {
		t.Fatalf("source-keyed selectivity = %v, want %v", got, card/3)
	}

	// Keyed on both columns: 3*4 = 12 distinct combinations == card, so
	// the divisor caps at card and the estimate floors at one match.
	byBoth := &planStep{relIdx: 0, keyPos: []int{0, 1}}
	if got := stepSelectivity(fr, byBoth, &cfg); got != 1 {
		t.Fatalf("fully-keyed selectivity = %v, want 1", got)
	}

	// At or under distinctMinRows the model skips statistics entirely
	// and assumes nothing filters.
	small := edgeDB(t, pathEdges(cfg.distinctMinRows))
	sfr := small.Frozen().Relations[0]
	if got := stepSelectivity(sfr, bySrc, &cfg); got != float64(sfr.NumRows()) {
		t.Fatalf("under-threshold selectivity = %v, want %v", got, float64(sfr.NumRows()))
	}
}

func TestChoosePlanTieGoesToScan(t *testing.T) {
	// All-zero weights price both arms at zero; the tie must fall to
	// the scan, which has no setup to amortize.
	cfg := defaultCostConfig
	cfg.planOverhead = 0
	cfg.indexBuildPerRow = 0
	cfg.nodeCost = 0
	cfg.scanNodeCost = 0
	d := edgeDB(t, pathEdges(16))
	q := MustParse("V(X, Z) :- E(X, Y), E(Y, Z).")
	plan := costPlanFor(t, q, d)
	c := choosePlan(d.Frozen(), plan, &cfg)
	if c.usePipeline {
		t.Fatal("zero-cost tie chose the pipeline; ties must go to the scan")
	}
}

func TestChoosePlanOverheadThresholdEdge(t *testing.T) {
	// Dial planOverhead to sit exactly at, then just under, the margin
	// the pipeline wins by; the strict < must flip between them.
	cfg := defaultCostConfig
	cfg.planOverhead = 0
	cfg.indexBuildPerRow = 0
	d := edgeDB(t, pathEdges(16))
	q := MustParse("V(X, Z) :- E(X, Y), E(Y, Z).")
	plan := costPlanFor(t, q, d)
	base := choosePlan(d.Frozen(), plan, &cfg)
	if !base.usePipeline {
		t.Fatalf("pipeline must win with no overhead (pipe %v vs scan %v)", base.pipeNodes, base.scanNodes)
	}
	margin := base.scanNodes*cfg.scanNodeCost - base.pipeNodes*cfg.nodeCost
	if margin <= 0 {
		t.Fatalf("expected a positive pipeline margin, got %v", margin)
	}
	cfg.planOverhead = margin
	if c := choosePlan(d.Frozen(), plan, &cfg); c.usePipeline {
		t.Fatal("overhead equal to the margin must tie, and ties go to the scan")
	}
	cfg.planOverhead = margin / 2
	if c := choosePlan(d.Frozen(), plan, &cfg); !c.usePipeline {
		t.Fatal("overhead under the margin must keep the pipeline")
	}
}

// parallelFixture compiles a two-component plan over a graph big
// enough to index, with a config that always prices the pipeline in.
func parallelFixture(t *testing.T) (*instance.Database, *searchPlan, costConfig) {
	t.Helper()
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	completeDigraph(d, []int64{1, 2, 3, 4})
	q := multiComponentQuery()
	plan := costPlanFor(t, q, d)
	if len(plan.comps) != 2 {
		t.Fatalf("fixture plan has %d components, want 2", len(plan.comps))
	}
	cfg := defaultCostConfig
	cfg.planOverhead = 0
	cfg.indexBuildPerRow = 0
	cfg.nodeCost = 0
	return d, plan, cfg
}

func TestChoosePlanParallelGating(t *testing.T) {
	d, plan, cfg := parallelFixture(t)
	fz := d.Frozen()

	// Workers default to GOMAXPROCS; on a single-core runner the gate
	// must stay closed however cheap the threshold is.
	cfg.parallelWorkers = 1
	cfg.parallelMinNodes = 0
	if c := choosePlan(fz, plan, &cfg); c.parallel {
		t.Fatal("one worker must never go parallel")
	}

	// With workers available and both components above the work floor,
	// the gate opens — and the worker count caps at the component count.
	cfg.parallelWorkers = 8
	c := choosePlan(fz, plan, &cfg)
	if !c.parallel {
		t.Fatalf("expected parallel (comp estimates %v)", c.compNodes)
	}
	if c.workers != len(plan.comps) {
		t.Fatalf("workers = %d, want cap at %d components", c.workers, len(plan.comps))
	}

	// Raise the per-component work floor above both estimates: fewer
	// than two heavy components must close the gate.
	heavier := c.compNodes[0]
	if c.compNodes[1] > heavier {
		heavier = c.compNodes[1]
	}
	cfg.parallelMinNodes = heavier + 1
	if c := choosePlan(fz, plan, &cfg); c.parallel {
		t.Fatal("no component reaches the work floor; gate must stay closed")
	}

	// A floor between the two-heavy and zero-heavy regimes: exactly two
	// heavy components keeps the gate open.
	lighter := c.compNodes[0]
	if c.compNodes[1] < lighter {
		lighter = c.compNodes[1]
	}
	cfg.parallelMinNodes = lighter
	if c := choosePlan(fz, plan, &cfg); !c.parallel {
		t.Fatal("both components at the floor must open the gate")
	}

	// More components demanded than the plan has: gate closed.
	cfg.parallelMinNodes = 0
	cfg.parallelMinComps = 3
	if c := choosePlan(fz, plan, &cfg); c.parallel {
		t.Fatal("parallelMinComps above the component count must close the gate")
	}
}

// TestExplainPlanStrategies pins the three strategies the adaptive
// search can reach for one query: the tier-0 scan with no plan, the
// sequential pipeline, and the parallel pipeline — plus the scan the
// tier-1 estimate falls back to when the pipeline is priced out.
func TestExplainPlanStrategies(t *testing.T) {
	q := multiComponentQuery()

	// Tier 0: everything small, no plan built.
	small := edgeDB(t, pathEdges(4))
	rels, _, err := resolveRelations(q, small)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := defaultCostConfig; !allSmall(rels, &cfg) {
		t.Fatal("small instance must take the tier-0 scan")
	}

	s := schema.MustParse("E(a:T1, b:T1)")
	big := instance.NewDatabase(s)
	completeDigraph(big, []int64{1, 2, 3, 4})
	plan := costPlanFor(t, q, big)
	fz := big.Frozen()
	if len(plan.comps) != 2 || len(plan.comps[0].steps)+len(plan.comps[1].steps) != 4 {
		t.Fatalf("unexpected plan shape: %d components", len(plan.comps))
	}
	indexed := 0
	for ci := range plan.comps {
		for _, st := range plan.comps[ci].steps {
			if st.indexSlot >= 0 {
				indexed++
			}
		}
	}
	if indexed == 0 {
		t.Fatal("indexed pipeline has no indexed steps")
	}

	cfg := defaultCostConfig
	cfg.planOverhead = 0
	cfg.indexBuildPerRow = 0
	cfg.nodeCost = 0
	cfg.parallelMinNodes = 0
	// One worker: the sequential pipeline, whatever the core count.
	cfg.parallelWorkers = 1
	if c := choosePlan(fz, plan, &cfg); !c.usePipeline || c.parallel {
		t.Fatalf("one worker: got %+v, want the sequential pipeline", c)
	}

	cfg.parallelWorkers = 4
	c := choosePlan(fz, plan, &cfg)
	if !c.usePipeline || !c.parallel {
		t.Fatalf("forced workers: got %+v, want the parallel pipeline", c)
	}
	if c.pipeNodes <= 0 || c.scanNodes <= c.pipeNodes {
		t.Fatalf("estimates not populated sensibly: %+v", c)
	}

	// A config that prices the pipeline out falls back to the scan with
	// both estimates attached.
	expensive := defaultCostConfig
	expensive.planOverhead = 1e12
	if c := choosePlan(fz, plan, &expensive); c.usePipeline || c.scanNodes == 0 {
		t.Fatalf("priced-out pipeline: got %+v, want scan with estimates", c)
	}
}

// TestCostModelCliqueMisprediction is a known-failure probe, not a
// regression test.  On the triangle (clique-3) query over a clique-4
// digraph the tier-1 estimate strongly prefers the pipeline (~84 vs
// ~588 estimated candidate visits): the per-column distinct counts of
// a clique make the frontier-product walk believe the indexes filter
// hard, when in fact every probe bucket is nearly the whole relation.
// Each arm is measured by forcing it through the cost configuration.
// The pipeline visits 4 candidates and the scan 25, but the pipeline's
// setup — planOverhead plus an index build over every edge — costs
// more than the scan's whole run, so under the model's own weights
// the scan wins the run the model gave to the pipeline.
//
// While the misprediction stands, the probe skips with the measured
// numbers.  If a cost-model change fixes it (either the estimate stops
// picking the pipeline here, or the pipeline starts actually saving
// enough visits to cover its setup), the probe fails loudly so it gets
// promoted to a real regression test.
func TestCostModelCliqueMisprediction(t *testing.T) {
	// Clique-4: complete digraph on 4 nodes, no self-loops (12 edges,
	// above scanMaxCard so tier 0 cannot rescue the model).
	var edges [][2]int64
	for a := int64(1); a <= 4; a++ {
		for b := int64(1); b <= 4; b++ {
			if a != b {
				edges = append(edges, [2]int64{a, b})
			}
		}
	}
	d := edgeDB(t, edges)
	if len(edges) <= defaultCostConfig.scanMaxCard {
		t.Fatalf("clique-4 has %d edges, at or under tier-0 bound %d; probe needs tier 1", len(edges), defaultCostConfig.scanMaxCard)
	}

	// Clique-3 in the paper's placeholder-distinct syntax: the triangle
	// closes through the equality list.
	q := MustParse("V() :- E(A, B), E(C, D), E(F, G), B = C, D = F, G = A.")
	cfg := defaultCostConfig
	plan := costPlanFor(t, q, d)
	choice := choosePlan(d.Frozen(), plan, &cfg)

	pipe := searchUnder(t, pipelineConfig(), q, d, instance.Tuple{})
	scan := searchUnder(t, scanConfig(), q, d, instance.Tuple{})
	if pipe.err != nil || scan.err != nil {
		t.Fatal(pipe.err, scan.err)
	}
	if pipe.ok != scan.ok {
		t.Fatalf("arms disagree on the verdict: pipeline=%v scan=%v", pipe.ok, scan.ok)
	}
	pipeStats, scanStats := pipe.es, scan.es

	// Price the measured runs with the model's own weights.  The scan
	// arm has no setup; the pipeline pays plan compilation and the index
	// builds the plan requested.
	actualPipeCost := cfg.planOverhead + choice.buildRows*cfg.indexBuildPerRow + float64(pipeStats.Nodes)*cfg.nodeCost
	actualScanCost := float64(scanStats.Nodes) * cfg.scanNodeCost

	mispredicted := choice.usePipeline && actualPipeCost >= actualScanCost
	if mispredicted {
		t.Skipf("known failure: model picked pipeline (est %.0f vs %.0f nodes) but measured costs are pipeline %.0f vs scan %.0f (visits: pipeline %d, scan %d, index-build rows %.0f)",
			choice.pipeNodes, choice.scanNodes, actualPipeCost, actualScanCost,
			pipeStats.Nodes, scanStats.Nodes, choice.buildRows)
	}
	t.Fatalf("clique-3/clique-4 misprediction no longer reproduces (usePipeline=%v, measured pipeline %.0f vs scan %.0f): promote this probe to a regression test",
		choice.usePipeline, actualPipeCost, actualScanCost)
}
