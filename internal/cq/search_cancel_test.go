package cq

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
)

// These tests pin the cancelCheckMask polling contract: every search
// path — the adaptive search's pipeline over hash indexes, the
// pipeline's ≤smallRelScanThreshold scan cursors, the adaptive scan
// arm, and the naive reference search — must observe a done context
// within cancelCheckMask+1 node visits.  A path that skips
// Nodes++ or the poll would run arbitrarily far past a timeout.

// cancelChainQuery builds V(X1, Xn+1) :- E(X1, X2), ..., E(Xn, Xn+1).
func cancelChainQuery(n int) *Query {
	var sb strings.Builder
	fmt.Fprintf(&sb, "V(X1, X%d) :- ", n+1)
	for i := 1; i <= n; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "E(X%d, X%d)", i, i+1)
	}
	sb.WriteString(".")
	return MustParse(sb.String())
}

// completeDigraph inserts every edge between distinct vertices of verts.
func completeDigraph(d *instance.Database, verts []int64) {
	for _, a := range verts {
		for _, b := range verts {
			if a != b {
				d.MustInsert("E", val(1, a), val(1, b))
			}
		}
	}
}

// cancelGraph builds two complete components with no path between them,
// so the chain search from component one to component two fans out
// exponentially and exhausts without ever succeeding.  big selects the
// edge count: ≤smallRelScanThreshold for the scan fallback, above it
// for the indexed path.
func cancelGraph(t *testing.T, big bool) *instance.Database {
	t.Helper()
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	if big {
		// 6 + 6 = 12 edges: above the scan threshold, so bound steps
		// probe hash indexes.
		completeDigraph(d, []int64{1, 2, 3})
		completeDigraph(d, []int64{4, 5, 6})
	} else {
		// 6 + 2 = 8 edges: at the threshold, so every step scans.
		completeDigraph(d, []int64{1, 2, 3})
		d.MustInsert("E", val(1, 4), val(1, 5))
		d.MustInsert("E", val(1, 5), val(1, 4))
	}
	n := d.Relation("E").Len()
	if big && n <= smallRelScanThreshold {
		t.Fatalf("big graph has %d edges, not above scan threshold %d", n, smallRelScanThreshold)
	}
	if !big && n > smallRelScanThreshold {
		t.Fatalf("small graph has %d edges, above scan threshold %d", n, smallRelScanThreshold)
	}
	return d
}

// wantAcross asks for a chain from vertex 1 (component one) to vertex 4
// (component two) — unsatisfiable, forcing an exhaustive search.
func wantAcross() instance.Tuple {
	return instance.Tuple{val(1, 1), val(1, 4)}
}

func testCancelObserved(t *testing.T, d *instance.Database, chainLen int, mode SearchMode) {
	t.Helper()
	q := cancelChainQuery(chainLen)

	// Control: uncancelled, the search must exhaust past the first poll
	// point — otherwise the cancellation assertion below is vacuous.
	ok, _, es, err := FindAnswerBindingCtxMode(context.Background(), q, d, wantAcross(), mode)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("cross-component chain unexpectedly satisfiable")
	}
	if es.Nodes <= cancelCheckMask+1 {
		t.Fatalf("exhaustive search visited %d nodes, need > %d to exercise the poll point",
			es.Nodes, cancelCheckMask+1)
	}

	// A context canceled before the search starts must be observed
	// within cancelCheckMask+1 node visits.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, _, es, err = FindAnswerBindingCtxMode(ctx, q, d, wantAcross(), mode)
	if err == nil {
		t.Fatalf("canceled search returned no error (ok=%v, %d nodes)", ok, es.Nodes)
	}
	if err != context.Canceled {
		t.Fatalf("canceled search returned %v, want context.Canceled", err)
	}
	if es.Nodes > cancelCheckMask+1 {
		t.Fatalf("cancellation observed after %d nodes, contract allows at most %d",
			es.Nodes, cancelCheckMask+1)
	}
	if es.Nodes == 0 {
		t.Fatal("canceled search did no work at all; the poll point was never exercised")
	}
}

// requireArm checks, on an uncancelled run, which arm the adaptive
// search under the live cost configuration takes for the cancel chain,
// so each test below provably polls on the path it names.
func requireArm(t *testing.T, d *instance.Database, chainLen int, pipeline bool) {
	t.Helper()
	_, _, es, err := FindAnswerBinding(cancelChainQuery(chainLen), d, wantAcross())
	if err != nil {
		t.Fatal(err)
	}
	if got := es.CompNodes != nil; got != pipeline {
		t.Fatalf("search took the pipeline: %v, want %v", got, pipeline)
	}
}

func TestCancelObservedPlannedScanFallback(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold with tier 0 disabled: the search
	// compiles a plan, and with no index to build the tier-1 estimate
	// falls back to the dense scan.
	cfg := defaultCostConfig
	cfg.scanMaxCard = -1
	withCostConfig(t, cfg, func() {
		d := cancelGraph(t, false)
		requireArm(t, d, 9, false)
		testCancelObserved(t, d, 9, SearchAdaptive)
	})
}

func TestCancelObservedPlannedIndexed(t *testing.T) {
	// 12 edges > smallRelScanThreshold under the default configuration:
	// the estimate itself picks the indexed pipeline.
	withCostConfig(t, defaultCostConfig, func() {
		d := cancelGraph(t, true)
		requireArm(t, d, 12, true)
		testCancelObserved(t, d, 12, SearchAdaptive)
	})
}

func TestCancelObservedInternedScanFallback(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold, scan arm forced through tier 0:
	// the dense ID scan polls inside its own recursion.
	withCostConfig(t, scanConfig(), func() {
		d := cancelGraph(t, false)
		requireArm(t, d, 9, false)
		testCancelObserved(t, d, 9, SearchAdaptive)
	})
}

func TestCancelObservedInternedIndexed(t *testing.T) {
	// 12 edges > smallRelScanThreshold, scan arm still forced: the dense
	// ID scan must poll just as well over a relation the pipeline would
	// have indexed.
	withCostConfig(t, scanConfig(), func() {
		d := cancelGraph(t, true)
		requireArm(t, d, 12, false)
		testCancelObserved(t, d, 12, SearchAdaptive)
	})
}

func TestCancelObservedNaive(t *testing.T) {
	testCancelObserved(t, cancelGraph(t, false), 9, SearchNaive)
}

func TestCancelObservedStreamedScanFallback(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold: the forced pipeline builds no
	// index, so every cursor scans frozen rows directly.
	withCostConfig(t, pipelineConfig(), func() {
		testCancelObserved(t, cancelGraph(t, false), 9, SearchAdaptive)
	})
}

func TestCancelObservedStreamedIndexed(t *testing.T) {
	// 12 edges > smallRelScanThreshold: bound cursors walk hash buckets,
	// built lazily under the same polling contract.
	withCostConfig(t, pipelineConfig(), func() {
		testCancelObserved(t, cancelGraph(t, true), 12, SearchAdaptive)
	})
}

func TestCancelObservedAdaptiveScanArm(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold: tier 0 routes the default
	// configuration to the dense scan, which polls inside its own
	// recursion.
	testCancelObserved(t, cancelGraph(t, false), 9, SearchAdaptive)
}

func TestCancelObservedAdaptivePipeline(t *testing.T) {
	// Above the threshold the adaptive search plans; price the pipeline
	// in through the estimate (no forced tier 0) so the poll point under
	// test is the cursor driver's as the cost model reaches it.
	cfg := defaultCostConfig
	cfg.planOverhead = 0
	cfg.indexBuildPerRow = 0
	cfg.nodeCost = 0
	cfg.parallelWorkers = 1
	withCostConfig(t, cfg, func() {
		testCancelObserved(t, cancelGraph(t, true), 12, SearchAdaptive)
	})
}
