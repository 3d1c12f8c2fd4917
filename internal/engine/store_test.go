package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"keyedeq/internal/containment"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
)

type memStore struct {
	mu   sync.Mutex
	puts []Record
	err  error
}

type Record struct {
	Key string
	V   Verdict
}

func (m *memStore) Put(key string, v Verdict) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	m.puts = append(m.puts, Record{key, v})
	return nil
}

func (m *memStore) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.puts)
}

func TestStoreReceivesFreshVerdictsOnly(t *testing.T) {
	st := &memStore{}
	e := New(gen.GraphSchema(), nil, Options{Store: st})
	q1, q2 := gen.ChainQuery(2), gen.ChainQuery(3)

	r := e.Decide(context.Background(), q1, q2, OpEquivalent)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if st.count() != 1 {
		t.Fatalf("store puts after fresh decision: %d, want 1", st.count())
	}
	got := st.puts[0]
	if got.Key != r.PairKey || got.V.Holds != r.Holds {
		t.Fatalf("stored %+v, decision key=%q holds=%v", got, r.PairKey, r.Holds)
	}

	// A cache hit must not re-append.
	r2 := e.Decide(context.Background(), q1, q2, OpEquivalent)
	if !r2.CacheHit {
		t.Fatal("second decision missed the cache")
	}
	if st.count() != 1 {
		t.Fatalf("store puts after cache hit: %d, want still 1", st.count())
	}

	// The isomorphic fast path is a fresh verdict too.
	before := st.count()
	if r := e.Decide(context.Background(), q1, gen.ChainQuery(2), OpEquivalent); r.Err != nil || !r.Holds {
		t.Fatalf("isomorphic decide: %+v", r)
	}
	if st.count() != before+1 {
		t.Fatalf("store puts after isomorphic decision: %d, want %d", st.count(), before+1)
	}
}

func TestStoreBatchAndDedup(t *testing.T) {
	st := &memStore{}
	e := New(gen.GraphSchema(), nil, Options{Store: st, Workers: 2})
	q1, q2 := gen.ChainQuery(2), gen.ChainQuery(3)
	jobs := []Job{
		{Left: q1, Right: q2, Op: OpEquivalent},
		{Left: q1, Right: q2, Op: OpEquivalent}, // dedup of the first
		{Left: q2, Right: q1, Op: OpContained},
	}
	rep := e.Run(context.Background(), jobs)
	if rep.Errors != 0 {
		t.Fatalf("batch errors: %+v", rep)
	}
	// Two distinct canonical pairs → exactly two store appends; the
	// deduped job adds nothing.
	if st.count() != 2 {
		t.Fatalf("store puts after batch: %d, want 2", st.count())
	}
}

func TestWarmLoadsCacheWithoutStore(t *testing.T) {
	st := &memStore{}
	p := NewPool(Options{Store: st})
	s := gen.GraphSchema()
	q1, q2 := gen.ChainQuery(2), gen.ChainQuery(3)

	// Compute the canonical pair key on a throwaway engine so the warm
	// target's own counters stay clean.
	scout := New(s, nil, Options{CacheSize: -1})
	key := scout.Decide(context.Background(), q1, q2, OpEquivalent).PairKey
	if key == "" {
		t.Fatal("no pair key from scout")
	}

	frozen := containment.SearchStats(123)
	p.Warm(Fingerprint(s, nil)+recordSep+key, Verdict{Holds: false, Stats: frozen})
	if st.count() != 0 {
		t.Fatalf("Warm wrote %d records to the store", st.count())
	}
	r := p.For(s, nil).Decide(context.Background(), q1, q2, OpEquivalent)
	if !r.CacheHit {
		t.Fatal("warm-loaded verdict was not a cache hit")
	}
	if r.Stats != frozen {
		t.Fatalf("warm hit stats = %+v, want the frozen %+v", r.Stats, frozen)
	}
	if st.count() != 0 {
		t.Fatalf("cache hit appended %d records", st.count())
	}
}

func TestWarmDisabledCacheIsNoop(t *testing.T) {
	p := NewPool(Options{CacheSize: -1, Store: &memStore{}})
	p.Warm("anything", Verdict{Holds: true})
	if st := p.Stats(); st.Entries != 0 {
		t.Fatalf("warm on disabled cache: %+v", st)
	}
}

// TestPoolRecordKeys pins the key formats a verdict log depends on: a
// Pool's engine reports the same PairKey as an engine of its own, and
// stores the verdict under Fingerprint, "\x1d" and that pair key.
func TestPoolRecordKeys(t *testing.T) {
	st := &memStore{}
	p := NewPool(Options{Store: st})
	s := schema.MustParse("E(src*:T1, dst:T1)")
	deps := fd.KeyFDs(s)
	q1, q2 := gen.ChainQuery(2), gen.ChainQuery(3)
	want := New(s, deps, Options{}).Decide(context.Background(), q1, q2, OpEquivalent).PairKey
	r := p.For(s, deps).Decide(context.Background(), q1, q2, OpEquivalent)
	if r.Err != nil || r.PairKey != want {
		t.Fatalf("pool PairKey %q (err %v), want %q", r.PairKey, r.Err, want)
	}
	if st.count() != 1 || st.puts[0].Key != Fingerprint(s, deps)+"\x1d"+want {
		t.Fatalf("store puts %+v, want one under the fingerprinted pair key", st.puts)
	}
	rep := p.For(s, deps).Run(context.Background(), []Job{{Left: q2, Right: q1, Op: OpEquivalent}})
	if got := rep.Results[0]; !got.CacheHit || got.PairKey != want {
		t.Fatalf("Run through the pool: %+v, want a cache hit on %q", got, want)
	}
}

func TestStoreAppendErrorsCountedNotFatal(t *testing.T) {
	st := &memStore{err: errors.New("disk full")}
	reg := obs.NewRegistry()
	e := New(gen.GraphSchema(), nil, Options{Store: st, Obs: &obs.Obs{Reg: reg}})
	r := e.Decide(context.Background(), gen.ChainQuery(2), gen.ChainQuery(3), OpEquivalent)
	if r.Err != nil {
		t.Fatalf("store failure leaked into the decision: %v", r.Err)
	}
	if got := reg.C(obs.CStoreAppendErrors).Value(); got != 1 {
		t.Fatalf("append error counter = %d, want 1", got)
	}
	if got := reg.C(obs.CStoreAppends).Value(); got != 0 {
		t.Fatalf("append counter = %d, want 0", got)
	}
	// The verdict is still cached and served.
	if r2 := e.Decide(context.Background(), gen.ChainQuery(2), gen.ChainQuery(3), OpEquivalent); !r2.CacheHit {
		t.Fatal("verdict not cached after store failure")
	}
}
