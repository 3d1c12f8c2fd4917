package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/schema"
)

// TestPoolEquivCtxCancelled pins the ctx plumbing: a cancelled context
// handed to the pool must reach the engine's decision path and abort it.
// The pre-fix pool hardcoded context.Background(), so cancellation (and
// per-request deadlines) silently never propagated.
func TestPoolEquivCtxCancelled(t *testing.T) {
	p := NewPool(Options{})
	s := gen.GraphSchema()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := p.Equiv(ctx, gen.ChainQuery(2), gen.ChainQuery(3), s, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Equiv with cancelled ctx: err = %v, want context.Canceled", err)
	}
	err = p.For(s, nil).Decide(ctx, gen.ChainQuery(2), gen.ChainQuery(3), OpContained).Err
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("containment with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// Cancelled decisions must not poison the cache: the same pair under
	// a live context decides normally.
	ok, _, err := p.Equiv(context.Background(), gen.ChainQuery(2), gen.ChainQuery(2), s, nil)
	if err != nil || !ok {
		t.Fatalf("Equiv after cancellation: ok=%v err=%v", ok, err)
	}
}

// TestPoolEquivDelegates locks the decider contract: Equiv is
// mapping.EquivFunc-shaped and agrees with the Decide of the pool's
// engine for the same schema.
func TestPoolEquivDelegates(t *testing.T) {
	p := NewPool(Options{})
	s := gen.GraphSchema()
	ok1, _, err1 := p.Equiv(context.Background(), gen.ChainQuery(2), gen.ChainQuery(2), s, nil)
	r := p.For(s, nil).Decide(context.Background(), gen.ChainQuery(2), gen.ChainQuery(2), OpEquivalent)
	if err1 != nil || r.Err != nil || ok1 != r.Holds {
		t.Fatalf("Equiv/Decide disagree: %v/%v err %v/%v", ok1, r.Holds, err1, r.Err)
	}
}

// TestPoolConcurrentSchemas decides over two schemas from several
// goroutines at once: every handle shares the pool's one cache, so each
// schema's pair is computed at least once and the cache ends holding
// exactly the two verdicts.
func TestPoolConcurrentSchemas(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	plain := gen.GraphSchema()
	keyed := schema.MustParse("E(src*:T1, dst:T1)")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s, deps := plain, []fd.FD(nil)
				if (w+i)%2 == 1 {
					s, deps = keyed, fd.KeyFDs(keyed)
				}
				if r := p.For(s, deps).Decide(context.Background(), gen.ChainQuery(2), gen.ChainQuery(3), OpEquivalent); r.Err != nil {
					t.Error(r.Err)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := p.Stats(); st.Entries != 2 || st.Hits+st.Misses != 160 {
		t.Fatalf("pool cache after 160 decisions over 2 schemas: %+v", st)
	}
}
