package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"keyedeq/internal/cq"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/store"
)

// layerSums totals the spans of a traced window per stage.
type layerSums struct {
	count      map[string]int64
	ns         map[string]int64
	chaseIters int64
	nodes      int64
}

// layerSink is the obs.Sink of a traced run.  It adds each span to the
// sums as it arrives.  With -out it also keeps the spans, to write them
// to trace.jsonl after the run rather than inside the timed requests.
type layerSink struct {
	mu    sync.Mutex
	on    bool
	sums  layerSums
	out   io.Writer
	spans []*obs.Span
}

func newLayerSink(out io.Writer) *layerSink {
	return &layerSink{on: true, out: out, sums: layerSums{count: map[string]int64{}, ns: map[string]int64{}}}
}

// Emit implements obs.Sink.  A dedup copy's verify span repeats its
// leader's interval, so it is kept for the trace but not summed.
func (s *layerSink) Emit(sp *obs.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.on {
		return
	}
	if s.out != nil {
		s.spans = append(s.spans, sp)
	}
	if dup, _ := sp.IntAttr("deduped"); sp.Stage == obs.StageVerify && dup == 1 {
		return
	}
	s.sums.count[sp.Stage]++
	s.sums.ns[sp.Stage] += sp.DurNs
	switch sp.Stage {
	case obs.StageFreezeChase:
		it, _ := sp.IntAttr("iterations")
		s.sums.chaseIters += it
	case obs.StageSearch:
		n, _ := sp.IntAttr("nodes")
		s.sums.nodes += n
	}
}

// stop ends the traced window, drops later spans, and writes the kept
// ones to the trace.
func (s *layerSink) stop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.on = false
	if s.out == nil {
		return nil
	}
	w := obs.NewJSONLSink(s.out)
	for _, sp := range s.spans {
		w.Emit(sp)
	}
	s.spans = nil
	return w.Err()
}

func perCall(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// setShares reports the span-derived layer metrics against base, in ns:
// Σ request latency on the decide path, Σ engine.Run wall × workers on
// the batch path.  Spans nest as plan ⊂ search and search, freeze_chase ⊂
// verify; on the decide path canonicalize ⊂ verify too, while engine.Run
// canonicalizes serially before dispatch.  A self time is a stage's time
// minus its children's, so the six shares sum to one.
func (s layerSums) setShares(res *result, base float64, decidePath bool) {
	canon := float64(s.ns[obs.StageCanonicalize])
	verify := float64(s.ns[obs.StageVerify])
	chase := float64(s.ns[obs.StageFreezeChase])
	plan := float64(s.ns[obs.StagePlan])
	search := float64(s.ns[obs.StageSearch])
	top, verifySelf := verify, verify-chase-search
	if decidePath {
		verifySelf -= canon
	} else {
		top += canon
	}
	res.set("unattributed_share", 1-top/base, 0)
	res.set("engine.canonicalize_share", canon/base, 0)
	res.set("engine.verify_self_share", verifySelf/base, 0)
	res.set("chase.share", chase/base, 0)
	res.set("cq.plan_share", plan/base, 0)
	res.set("cq.search_self_share", (search-plan)/base, 0)

	nCanon, nChase, nSearch := s.count[obs.StageCanonicalize], s.count[obs.StageFreezeChase], s.count[obs.StageSearch]
	res.set("engine.canonicalize_us_per_query", perCall(canon, nCanon)/1e3, int(nCanon))
	res.set("chase.iterations_per_call", perCall(float64(s.chaseIters), nChase), int(nChase))
	res.set("cq.search_us_per_call", perCall(search, nSearch)/1e3, int(nSearch))
	res.set("cq.search_nodes_per_call", perCall(float64(s.nodes), nSearch), int(nSearch))
	res.set("cq.search_ns_per_node", perCall(search, s.nodes), int(s.nodes))
}

// timeTexts times from outside the layers that have no span: cq.Parse on
// both sides of each pair, and the daemon's per-request schema path
// (schema.Parse, fd.KeyFDs, engine.Fingerprint) once per pair.
func timeTexts(res *result, items []decideBody) error {
	runtime.GC()
	start := now()
	for _, it := range items {
		if _, err := cq.Parse(it.Left); err != nil {
			return err
		}
		if _, err := cq.Parse(it.Right); err != nil {
			return err
		}
	}
	parse := now().Sub(start)
	fps := 0
	start = now()
	for _, it := range items {
		s, err := schema.Parse(it.Schema)
		if err != nil {
			return err
		}
		fps += len(engine.Fingerprint(s, fd.KeyFDs(s)))
	}
	schemaPath := now().Sub(start)
	if fps == 0 {
		return fmt.Errorf("empty schema fingerprints")
	}
	res.set("cq.parse_us_per_query", us(parse)/float64(2*len(items)), 2*len(items))
	res.set("serve.schema_us_per_req", us(schemaPath)/float64(len(items)), len(items))
	return nil
}

// timeStore measures the store on the workload's own verdicts: it
// re-appends recs (cycled up to cfg.storeAppends appends) into a fresh
// log with the daemon's SyncEvery, timing each Append, then times
// store.Open plus a full Replay of replayPath (the re-append log when
// replayPath is empty).
func timeStore(cfg config, res *result, recs []store.Record, replayPath string) error {
	if len(recs) == 0 {
		return fmt.Errorf("no verdict records to re-append")
	}
	path := filepath.Join(cfg.dir, "reappend.log")
	log, err := store.Open(path, store.Options{SyncEvery: daemonSyncEvery})
	if err != nil {
		return err
	}
	empty, err := os.Stat(path)
	if err != nil {
		log.Close()
		return err
	}
	n := cfg.storeAppends
	if len(recs) > n {
		n = len(recs)
	}
	lat := make([]time.Duration, n)
	runtime.GC()
	for i := range lat {
		t := now()
		if err := log.Append(recs[i%len(recs)]); err != nil {
			log.Close()
			return err
		}
		lat[i] = now().Sub(t)
	}
	if err := log.Close(); err != nil {
		return err
	}
	full, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.set("store.append_us_p50", us(quantile(lat, 0.50)), n)
	res.set("store.append_us_p99", us(quantile(lat, 0.99)), n)
	res.set("store.bytes_per_append", float64(full.Size()-empty.Size())/float64(n), n)

	if replayPath == "" {
		replayPath = path
	}
	runtime.GC()
	start := now()
	rl, err := store.Open(replayPath, store.Options{SyncEvery: -1})
	if err != nil {
		return err
	}
	records := 0
	err = rl.Replay(func(store.Record) error { records++; return nil })
	took := now().Sub(start)
	if cerr := rl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.set("store.replay_us_per_record", us(took)/float64(records), records)
	return nil
}
