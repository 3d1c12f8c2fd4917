package cq

import (
	"sync"

	"keyedeq/internal/value"
)

// This file fans a plan's connected components out to a bounded worker
// pool.  Components share no unbound equality classes, so each is a
// self-contained search from the prebound state: workers never touch
// each other's bindings, and each component's node count is a
// deterministic function of the plan alone.  That makes the merge
// exact: results are folded in component order with as-if-sequential
// semantics, so verdicts, Nodes, and CompNodes are bit-identical to
// the sequential runtime on every non-canceled outcome — a sequential
// run stops at the first missing component, so the merge does too,
// discarding (not reporting) any speculative work later components
// did.  Only cancellation timing can differ: each worker polls its
// context under its own masked counter, so a cancelled parallel search
// still stops promptly, but the partial node counts it reports depend
// on where each worker was interrupted.

// compResult is one component's outcome: the verdict, its node count,
// and — on success — the classes it bound with their values, to be
// folded back into the parent searcher.
type compResult struct {
	found bool
	nodes int64
	err   error
	added []int32
	vals  []value.ID
}

// runComponentsParallel searches the plan's components concurrently on
// workers goroutines and merges the results in component order.  The
// caller's searcher holds the prebound state; its index slots are
// pre-built up front (sequentially, under the usual polling contract)
// and then shared read-only by every worker.
func runComponentsParallel(s *streamSearcher, plan *searchPlan, workers int) (bool, error) {
	for ci := range plan.comps {
		comp := &plan.comps[ci]
		for si := range comp.steps {
			st := &comp.steps[si]
			if st.indexSlot >= 0 && !s.idx[st.indexSlot].built {
				if !s.buildIndex(st, s.fz.Relations[st.relIdx]) {
					return false, s.canceled
				}
			}
		}
	}
	results := make([]compResult, len(plan.comps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range jobs {
				results[ci] = searchOneComponent(s, plan, ci)
			}
		}()
	}
	for ci := range plan.comps {
		jobs <- ci
	}
	close(jobs)
	wg.Wait()
	for ci := range plan.comps {
		r := &results[ci]
		s.stats.CompNodes = append(s.stats.CompNodes, r.nodes)
		s.stats.Nodes += r.nodes
		if r.err != nil {
			s.canceled = r.err
			return false, r.err
		}
		if !r.found {
			return false, nil
		}
		for k, id := range r.added {
			s.binding[id] = r.vals[k]
			s.bound[id] = true
		}
	}
	return true, nil
}

// searchOneComponent runs one component on a worker-private searcher
// seeded from the parent's prebound state, sharing the parent's
// read-only indexes and ghost table.
func searchOneComponent(parent *streamSearcher, plan *searchPlan, ci int) compResult {
	steps := plan.comps[ci].steps
	var cstats EvalStats
	ws := &streamSearcher{
		idSearchCore: idSearchCore{
			ctx:       parent.ctx,
			fz:        parent.fz,
			binding:   append([]value.ID(nil), parent.binding...),
			bound:     append([]bool(nil), parent.bound...),
			stats:     &cstats,
			ghostVals: parent.ghostVals,
		},
		plan:    plan,
		idx:     parent.idx,
		cursors: make([]stepCursor, len(steps)),
		marks:   make([]int, len(steps)),
	}
	found := ws.runPipeline(steps, nil)
	res := compResult{found: found, nodes: cstats.Nodes, err: ws.canceled}
	if found {
		res.added = ws.addedStack
		res.vals = make([]value.ID, len(ws.addedStack))
		for k, id := range ws.addedStack {
			res.vals[k] = ws.binding[id]
		}
	}
	return res
}
