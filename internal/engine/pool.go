package engine

import (
	"context"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
)

// recordSep joins a Fingerprint to a pair key in a Pool's cache and
// store keys (the records of keyedeqd's verdict log).  The fingerprint
// uses "\x00" internally and pair keys use "\x1e"/"\x1f", so "\x1d"
// collides with neither side.
const recordSep = "\x1d"

// Pool routes decisions over many (schema, dependencies) pairs — the
// dominance search, the sqeq CLI, the keyedeqd daemon — through one
// verdict cache of Options.CacheSize entries in total and one
// Options.Store, so memory stays bounded however many schemas the
// callers name.  A Pool is safe for concurrent use.
type Pool struct {
	base *Engine // the options and the cache every engine of the pool shares
}

// NewPool builds a pool whose engines all share opts and one cache.
func NewPool(opts Options) *Pool {
	return &Pool{base: New(nil, nil, opts)}
}

// For returns an engine for (s, deps).  It is a cheap handle, new on
// every call: it keys the pool's cache and store by Fingerprint,
// recordSep and the pair key, so structurally equal schema and
// dependency sets share verdicts even across distinct pointers, while
// Result.PairKey stays the bare pair key.
func (p *Pool) For(s *schema.Schema, deps []fd.FD) *Engine {
	e := *p.base
	e.s, e.deps, e.prefix = s, deps, Fingerprint(s, deps)+recordSep
	return &e
}

// Warm preloads the pool's cache with a verdict the store replayed,
// under its record key, without touching the store or the hit and miss
// counts.  A no-op when caching is disabled.
func (p *Pool) Warm(key string, v Verdict) {
	if p.base.cache != nil {
		p.base.cache.put(key, v)
	}
}

// Equiv decides q1 ≡ q2 over s under deps through the pool's cache,
// honoring ctx cancellation and deadlines.  Its signature matches
// mapping.EquivFunc, so callers that serve requests — the keyedeqd
// daemon, the dominance search — keep per-request timeouts all the way
// into the homomorphism searches.
func (p *Pool) Equiv(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, containment.Stats, error) {
	r := p.For(s, deps).Decide(ctx, q1, q2, OpEquivalent)
	return r.Holds, r.Stats, r.Err
}

// Stats snapshots the pool's cache (zero when caching is off).
func (p *Pool) Stats() CacheStats { return p.base.CacheStats() }
