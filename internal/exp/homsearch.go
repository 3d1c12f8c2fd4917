package exp

import (
	"context"
	"math/rand"
	"time"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/instance"
	"keyedeq/internal/obs"
)

// HomFamilyResult is one corpus family's planned-vs-naive comparison,
// serialized into BENCH_homsearch.json by `keyedeq-bench -record hom -json`.
type HomFamilyResult struct {
	Family string `json:"family"`
	Pairs  int    `json:"pairs"`
	// Searches counts homomorphism search instances (up to two per
	// pair: one per containment direction, minus failing chases).
	Searches      int   `json:"searches"`
	NaiveWallNs   int64 `json:"naive_wall_ns"`
	PlannedWallNs int64 `json:"planned_wall_ns"`
	NaiveNodes    int64 `json:"naive_nodes"`
	PlannedNodes  int64 `json:"planned_nodes"`
	// NodeRatio is naive search nodes over planned search nodes.
	NodeRatio float64 `json:"node_ratio"`
	Speedup   float64 `json:"speedup"`
	Holding   int     `json:"holding"`
}

// HomBenchResult is the planned-vs-naive homomorphism search regression
// record.  CI's bench gate parses this and fails when the planner stops
// paying for itself.
type HomBenchResult struct {
	Families []HomFamilyResult `json:"families"`
	NaiveNs  int64             `json:"naive_wall_ns"`
	PlanNs   int64             `json:"planned_wall_ns"`
	// Speedup is total naive search wall time over total planned
	// search wall time.
	Speedup float64 `json:"speedup"`
	// WideNodeRatio is the node ratio on the wide family, where the
	// index probes shine brightest.
	WideNodeRatio float64 `json:"wide_node_ratio"`
	// Mismatches counts searches the two modes decided differently
	// (must be zero: the planner is an optimization, not a semantics
	// change).
	Mismatches int `json:"mismatches"`
}

// HomCase is one prepared homomorphism search instance: does Q have the
// answer Want, the frozen head, on the chased canonical database Canon?
// The adaptive arm asks Canon through ContainedIn, as the engine does;
// the naive arm scans DB, Canon's decode, with the oracle.
type HomCase struct {
	Q     *cq.Query
	Canon *containment.CanonicalDB
	DB    *instance.Database
	Want  instance.Tuple
}

// run searches the case with one arm and returns the verdict and the
// search nodes.
func (c HomCase) run(ctx context.Context, mode cq.SearchMode) (bool, int64, error) {
	if mode == cq.SearchNaive {
		ok, _, es, err := cq.FindAnswerBindingNaive(ctx, c.Q, c.DB, c.Want)
		return ok, es.Nodes, err
	}
	ok, st, err := c.Canon.ContainedIn(ctx, c.Q)
	return ok, st.Nodes, err
}

// PrepareHomCases freezes and chases both containment directions of
// every pair into concrete search instances.  The freeze/chase work is
// identical in both search modes, so benchmarks and the observability
// reconciliation tests share it up front and drive only the searches.
func PrepareHomCases(f *gen.Family) ([]HomCase, error) {
	var cases []HomCase
	add := func(q1, q2 *cq.Query) error {
		c := containment.NewCanonicalDB(context.Background(), q1, f.Schema, f.Deps)
		if err := c.Err(); err != nil {
			return err
		}
		db, want := c.Database()
		if db == nil {
			// Vacuous containment: no search happens in either mode.
			return nil
		}
		cases = append(cases, HomCase{Q: q2, Canon: c, DB: db, Want: want})
		return nil
	}
	for _, p := range f.Pairs {
		if err := add(p.Left, p.Right); err != nil {
			return nil, err
		}
		if err := add(p.Right, p.Left); err != nil {
			return nil, err
		}
	}
	return cases, nil
}

// homTrials is how many interleaved timing trials H1 runs per family,
// and homPassesPerSample how many consecutive passes one timed sample
// covers.  Each arm's reported wall is the minimum sample over the
// trials, divided back to one pass: scheduler and GC interference on
// a shared box is strictly additive, so the minimum converges to the
// true cost of each arm (the same argument ObsOverheadGate
// documents), and longer samples keep interruptions small relative to
// what is measured — a single measured pass swings with whatever
// noise hit it, far too unstable to gate per-family speedup floors
// on.
const (
	homTrials          = 5
	homPassesPerSample = 3
)

// H1HomSearch prepares the homomorphism search instances behind the
// generated pair corpus of every schema family (freeze + chase, shared
// across modes) and runs each search with the naive full-scan
// backtracking search and with the adaptive runtime (the process
// default: the dense scan when every relation is small, otherwise the
// planned pipeline, one component at a time) — reporting wall time,
// search nodes, and verdict agreement.
// Timing interleaves homTrials trials of each arm and keeps the
// minima, so neither arm is systematically charged for cache warmup
// or drift.  The record keeps the historical planned_* JSON keys: the
// measured arm is whatever the default runtime is, and the naive arm
// is the fixed reference.  A non-nil o observes the measured arm only,
// so exported search totals line up with the record's planned_nodes.
func H1HomSearch(pairsPerFamily, seed int, o *obs.Obs) (*Table, *HomBenchResult) {
	plannedCtx := obs.NewContext(context.Background(), o)
	t := &Table{
		ID:    "H1",
		Title: "planned vs naive homomorphism search (generated pair corpus)",
		Columns: []string{"family", "searches", "naive wall", "planned wall", "speedup",
			"naive nodes", "planned nodes", "node ratio", "holding"},
	}
	res := &HomBenchResult{}
	for fi, fam := range gen.FamilyNames() {
		rng := rand.New(rand.NewSource(int64(seed + fi)))
		f, err := gen.PairCorpus(rng, fam, pairsPerFamily)
		if err != nil {
			t.Note("%s: %v", fam, err)
			continue
		}
		cases, err := PrepareHomCases(f)
		if err != nil {
			t.Note("%s: prepare: %v", fam, err)
			continue
		}
		fr := HomFamilyResult{Family: fam, Pairs: len(f.Pairs), Searches: len(cases)}
		verdicts := make([]bool, len(cases))

		// Untimed warmup passes record node totals, verdicts, and any
		// mismatch, and pay one-time memoization (sorted tuple views)
		// so the timed trials below compare steady-state arms.
		for i, c := range cases {
			ok, nodes, err := c.run(context.Background(), cq.SearchNaive)
			if err != nil {
				t.Note("%s: naive: %v", fam, err)
				continue
			}
			verdicts[i] = ok
			fr.NaiveNodes += nodes
		}
		for i, c := range cases {
			ok, nodes, err := c.run(plannedCtx, cq.SearchAdaptive)
			if err != nil {
				t.Note("%s: planned: %v", fam, err)
				continue
			}
			if ok != verdicts[i] {
				res.Mismatches++
				t.Note("%s: VERDICT MISMATCH on search %d", fam, i)
			}
			if ok {
				fr.Holding++
			}
			fr.PlannedNodes += nodes
		}

		runNaive := func() time.Duration {
			return timed(func() {
				for p := 0; p < homPassesPerSample; p++ {
					for _, c := range cases {
						_, _, _ = c.run(context.Background(), cq.SearchNaive)
					}
				}
			})
		}
		runPlanned := func() time.Duration {
			return timed(func() {
				for p := 0; p < homPassesPerSample; p++ {
					for _, c := range cases {
						_, _, _ = c.run(plannedCtx, cq.SearchAdaptive)
					}
				}
			})
		}
		var naiveWall, plannedWall time.Duration
		for trial := 0; trial < homTrials; trial++ {
			// Alternate which arm goes first so per-trial drift cannot
			// systematically favor one of them.
			var nw, pw time.Duration
			if trial%2 == 0 {
				nw, pw = runNaive(), runPlanned()
			} else {
				pw, nw = runPlanned(), runNaive()
			}
			nw, pw = nw/homPassesPerSample, pw/homPassesPerSample
			if trial == 0 || nw < naiveWall {
				naiveWall = nw
			}
			if trial == 0 || pw < plannedWall {
				plannedWall = pw
			}
		}

		fr.NaiveWallNs = naiveWall.Nanoseconds()
		fr.PlannedWallNs = plannedWall.Nanoseconds()
		if fr.PlannedNodes > 0 {
			fr.NodeRatio = float64(fr.NaiveNodes) / float64(fr.PlannedNodes)
		}
		if fr.PlannedWallNs > 0 {
			fr.Speedup = float64(fr.NaiveWallNs) / float64(fr.PlannedWallNs)
		}
		if fam == "wide" {
			res.WideNodeRatio = fr.NodeRatio
		}
		res.NaiveNs += fr.NaiveWallNs
		res.PlanNs += fr.PlannedWallNs
		res.Families = append(res.Families, fr)
		t.Add(fam, fr.Searches, naiveWall, plannedWall, fr.Speedup,
			fr.NaiveNodes, fr.PlannedNodes, fr.NodeRatio, fr.Holding)
	}
	if res.PlanNs > 0 {
		res.Speedup = float64(res.NaiveNs) / float64(res.PlanNs)
	}
	t.Note("total: naive %s, planned %s, speedup %.2fx, wide node ratio %.1fx, mismatches %d",
		time.Duration(res.NaiveNs).Round(time.Millisecond),
		time.Duration(res.PlanNs).Round(time.Millisecond),
		res.Speedup, res.WideNodeRatio, res.Mismatches)
	return t, res
}
