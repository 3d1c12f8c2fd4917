// Package obs is the zero-dependency observability layer of the
// decision pipeline: a metrics registry (counters, gauges, histograms
// with fixed bucket boundaries) with Prometheus-text and expvar export,
// and lightweight spans emitted at each pipeline stage — canonicalize,
// freeze+chase, plan, search, verify — so a single pair's verdict can
// be reconstructed from its trace.
//
// The layer is off by default and near-zero cost when off: an *Obs is
// carried through the pipeline inside a context.Context, every method
// is safe on a nil receiver, and instrumented code pays one context
// lookup per pipeline stage (not per search node) plus a handful of nil
// checks.  The obs-verify benchmark gate holds the no-op overhead under
// 2% of search wall time.
//
// The package deliberately imports nothing from the rest of the repo,
// so every pipeline package (engine, containment, chase, cq) can report
// through it without import cycles.  Stage-specific stats structures
// (containment.Stats, chase.Stats, cq.EvalStats) are flattened into
// span attributes by the emitting package.
package obs

import (
	"context"
	"time"
)

// Pipeline stage names used in spans and traces.  One pair's decision
// emits, in order: canonicalize spans for each distinct query, a
// freeze_chase span per containment direction, plan and search spans
// from the homomorphism search, and a closing verify span carrying the
// verdict and the pair's merged containment.Stats.
const (
	StageCanonicalize = "canonicalize"
	StageFreezeChase  = "freeze_chase"
	StagePlan         = "plan"
	StageSearch       = "search"
	StageVerify       = "verify"
)

// Obs bundles the three observability channels an instrumented run may
// carry: a metrics registry, a span sink, and an injected clock.  Any
// field may be nil; a nil *Obs disables everything.  Library code never
// calls time.Now — commands inject it — so spans carry wall times only
// when Now is set.
type Obs struct {
	Reg  *Registry
	Sink Sink
	Now  func() time.Time
}

// C returns the standard counter handle, nil when o or its registry is
// nil (a nil *Counter's Add is a no-op).
func (o *Obs) C(id CounterID) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.C(id)
}

// G returns the standard gauge handle, nil-safe like C.
func (o *Obs) G(id GaugeID) *Gauge {
	if o == nil {
		return nil
	}
	return o.Reg.G(id)
}

// H returns the standard histogram handle, nil-safe like C.
func (o *Obs) H(id HistID) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.H(id)
}

// SpansOn reports whether span emission is enabled.  Emitting packages
// check it before building attribute slices, so a metrics-only Obs
// allocates nothing on the span path.
func (o *Obs) SpansOn() bool { return o != nil && o.Sink != nil }

// Time returns the injected clock's reading, or the zero time when no
// clock was injected (spans then carry durations of zero and omit
// timestamps).
func (o *Obs) Time() time.Time {
	if o == nil || o.Now == nil {
		return time.Time{}
	}
	return o.Now()
}

// Emit sends a span to the sink, if any.  The span must not be mutated
// after the call; ownership transfers to the sink.
func (o *Obs) Emit(sp *Span) {
	if o != nil && o.Sink != nil {
		o.Sink.Emit(sp)
	}
}

// EmitSpan builds and emits one span: stage, the pair key carried by
// ctx (if any), wall times from start to now when a clock is injected,
// the error (if any), and the given attributes.  No-op without a sink.
func (o *Obs) EmitSpan(ctx context.Context, stage string, start time.Time, err error, attrs ...Attr) {
	if !o.SpansOn() {
		return
	}
	o.EmitSpanAt(ctx, stage, start, o.Time(), err, attrs...)
}

// EmitSpanAt is EmitSpan for a stage that ended at end rather than now,
// for callers that settle a stage's attributes after it has finished.
func (o *Obs) EmitSpanAt(ctx context.Context, stage string, start, end time.Time, err error, attrs ...Attr) {
	if !o.SpansOn() {
		return
	}
	sp := &Span{Stage: stage, Pair: PairFromContext(ctx), Start: start, Attrs: attrs}
	if !start.IsZero() && !end.IsZero() {
		sp.DurNs = end.Sub(start).Nanoseconds()
	}
	if err != nil {
		sp.Err = err.Error()
	}
	o.Emit(sp)
}

// ctxKey keys the context values this package installs.
type ctxKey int

const (
	obsKey ctxKey = iota
	pairKey
)

// NewContext returns ctx carrying o; the pipeline packages recover it
// with FromContext.  A nil o returns ctx unchanged.
func NewContext(ctx context.Context, o *Obs) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, obsKey, o)
}

// FromContext returns the Obs carried by ctx, or nil.  All Obs methods
// are nil-safe, so callers may use the result unconditionally.
func FromContext(ctx context.Context) *Obs {
	o, _ := ctx.Value(obsKey).(*Obs)
	return o
}

// WithPair returns ctx tagged with the canonical pair key the current
// work belongs to; spans emitted under it carry the key, tying every
// stage of one pair's decision together in the trace.
func WithPair(ctx context.Context, pair string) context.Context {
	return context.WithValue(ctx, pairKey, pair)
}

// PairFromContext returns the pair key installed by WithPair, or "".
func PairFromContext(ctx context.Context) string {
	p, _ := ctx.Value(pairKey).(string)
	return p
}
