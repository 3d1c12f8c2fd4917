package engine

import (
	"context"
	"testing"

	"keyedeq/internal/obs"
)

// TestDecideSpans pins the trace of a Decide miss on a keyed pair: each
// containment direction emits one freeze_chase and one search span,
// every one of them and the closing verify span carry the pair key, and
// their counters sum to the Result's Stats.
func TestDecideSpans(t *testing.T) {
	s, deps, q1, q2 := timeoutPair(t)
	sink := &obs.CollectSink{}
	e := New(s, deps, Options{Obs: &obs.Obs{Reg: obs.NewRegistry(), Sink: sink}})
	r := e.Decide(context.Background(), q1, q2, OpEquivalent)
	if r.Err != nil || !r.Holds {
		t.Fatalf("Decide: holds=%v err=%v", r.Holds, r.Err)
	}
	sum := func(stage, attr string) int64 {
		var n int64
		for _, sp := range sink.Stage(stage) {
			v, ok := sp.IntAttr(attr)
			if !ok {
				t.Fatalf("%s span lacks %q: %+v", stage, attr, sp.Attrs)
			}
			n += v
		}
		return n
	}
	for stage, want := range map[string]int{obs.StageFreezeChase: 2, obs.StageSearch: 2, obs.StageVerify: 1} {
		spans := sink.Stage(stage)
		if len(spans) != want {
			t.Fatalf("%d %s spans, want %d", len(spans), stage, want)
		}
		for _, sp := range spans {
			if sp.Pair != r.PairKey {
				t.Errorf("%s span pair %q, want %q", stage, sp.Pair, r.PairKey)
			}
		}
	}
	if r.Stats.Searches != 2 || r.Stats.ChaseMerges == 0 {
		t.Fatalf("Stats %+v: want two searches and chase merges", r.Stats)
	}
	for _, c := range []struct {
		stage, attr string
		want        int64
	}{
		{obs.StageSearch, "nodes", r.Stats.Nodes},
		{obs.StageFreezeChase, "iterations", int64(r.Stats.ChaseIterations)},
		{obs.StageFreezeChase, "merges", int64(r.Stats.ChaseMerges)},
		{obs.StageFreezeChase, "revisited", int64(r.Stats.ChaseRevisited)},
		{obs.StageVerify, "nodes", r.Stats.Nodes},
		{obs.StageVerify, "chase_merges", int64(r.Stats.ChaseMerges)},
	} {
		if got := sum(c.stage, c.attr); got != c.want {
			t.Errorf("%s spans sum %s to %d, Result Stats say %d", c.stage, c.attr, got, c.want)
		}
	}
}
