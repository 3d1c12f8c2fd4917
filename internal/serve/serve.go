// Package serve is the HTTP layer of keyedeqd: conjunctive query
// equivalence as a service over the batch engine, with admission
// control, graceful drain, and a persistent verdict store replayed into
// the cache on boot.
//
// Endpoints:
//
//	POST /v1/decide           one pair, JSON in/out
//	POST /v1/batch            NDJSON stream: header line, then pair lines
//	POST /v1/schema/equiv     Theorem 13 schema equivalence (+ witness)
//	POST /v1/schema/dominance verify a user-supplied (α, β) pair
//	GET  /v1/stats            cache and store counters
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 while draining)
//	GET  /metrics, /debug/vars, /debug/pprof/...   (when Obs is set)
//
// Admission is two-tier: a global in-flight bound and a per-client
// (API key or remote address) bound.  Requests over either limit get
// 429 with Retry-After rather than queueing, so load sheds at the edge
// instead of growing latency unboundedly.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/dominance"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/mapping"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/store"
)

// Config configures a Server.
type Config struct {
	// Engine configures the server's engine pool: CacheSize bounds its
	// one verdict cache, shared by every schema the requests name (Store
	// and Obs are overwritten by the server).
	Engine engine.Options
	// Log, when set, persists verdicts and warm-starts the cache at
	// boot.  The server syncs it on drain; the caller closes it.
	Log *store.Log
	// Obs, when set, receives serve/store metrics and mounts /metrics,
	// /debug/vars, and /debug/pprof on the server mux.
	Obs *obs.Obs
	// MaxInFlight bounds concurrently admitted requests; 0 means 64.
	MaxInFlight int
	// PerClientInFlight bounds concurrently admitted requests per
	// client (X-API-Key header, else remote address); 0 means 8.
	PerClientInFlight int
	// DefaultTimeout bounds each decision when the request does not
	// carry its own timeout_ms; 0 means 30s.
	DefaultTimeout time.Duration
}

// Boot compaction policy: rewrite the log when the append history holds
// more than twice the live verdict set and is big enough to matter.
const (
	compactMinRecords = 1024
	compactFactor     = 2
)

// Server serves equivalence decisions over HTTP.  Create with New,
// start with Serve, stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	o       *obs.Obs
	pool    *engine.Pool
	mux     *http.ServeMux
	httpSrv *http.Server

	sem      chan struct{}
	inFlight atomic.Int64
	draining atomic.Bool
	clientMu sync.Mutex
	clients  map[string]int

	// decideHook, when set (tests only), runs inside every admitted
	// decide request while its admission slot is held, so tests can
	// park requests deterministically to exercise quotas and drain.
	decideHook func()
}

// New builds a server: replays the verdict log, compacts it when the
// append history has outgrown the live set, warms the cache, and mounts
// all endpoints.
func New(cfg Config) (*Server, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.PerClientInFlight <= 0 {
		cfg.PerClientInFlight = 8
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	opts := cfg.Engine
	opts.Obs = cfg.Obs
	if cfg.Log != nil {
		opts.Store = logStore{cfg.Log}
	}
	s := &Server{
		cfg:     cfg,
		o:       cfg.Obs,
		pool:    engine.NewPool(opts),
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		clients: make(map[string]int),
	}
	if cfg.Log != nil {
		if err := s.warmStart(); err != nil {
			return nil, err
		}
	}

	s.mux.HandleFunc("POST /v1/decide", s.handleDecide)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/schema/equiv", s.handleSchemaEquiv)
	s.mux.HandleFunc("POST /v1/schema/dominance", s.handleSchemaDominance)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if s.o != nil && s.o.Reg != nil {
		obs.MountHTTP(s.mux, s.o.Reg)
	}
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	return s, nil
}

// logStore persists the pool's fresh verdicts, which arrive under their
// record keys, to the verdict log.
type logStore struct{ log *store.Log }

func (l logStore) Put(key string, v engine.Verdict) error {
	return l.log.Append(store.Record{Key: key, Holds: v.Holds, Stats: v.Stats})
}

// warmStart replays the verdict log once.  A record supersedes every
// earlier record of its key.  The log is compacted to the live records,
// in log order, when the append history holds more than twice as many;
// then the newest live records the cache can hold are warmed into it,
// oldest first, so the newest survive any shard that overflows.
func (s *Server) warmStart() error {
	log := s.cfg.Log
	var recs []store.Record
	last := make(map[string]int) // record key -> index of its newest record
	if err := log.Replay(func(r store.Record) error {
		last[r.Key] = len(recs)
		recs = append(recs, r)
		return nil
	}); err != nil {
		return fmt.Errorf("serve: replaying verdict log: %v", err)
	}
	s.o.C(obs.CStoreReplayed).Add(int64(len(recs)))
	s.o.C(obs.CStoreTruncatedBytes).Add(log.RecoveryStats().TruncatedBytes)
	if len(recs) >= compactMinRecords && len(recs) > compactFactor*len(last) {
		live := make([]store.Record, 0, len(last))
		for i, r := range recs {
			if last[r.Key] == i {
				live = append(live, r)
			}
		}
		if err := log.Compact(live); err != nil {
			return fmt.Errorf("serve: compacting verdict log: %v", err)
		}
		s.o.C(obs.CStoreCompactions).Add(1)
	}
	capacity := s.pool.Stats().Capacity
	var newest []int // indexes of the newest live records, newest first
	for i := len(recs) - 1; i >= 0 && len(newest) < capacity; i-- {
		if last[recs[i].Key] == i {
			newest = append(newest, i)
		}
	}
	for j := len(newest) - 1; j >= 0; j-- {
		r := &recs[newest[j]]
		s.pool.Warm(r.Key, engine.Verdict{Holds: r.Holds, Stats: r.Stats})
	}
	s.o.G(obs.GCacheEntries).Set(int64(s.pool.Stats().Entries))
	return nil
}

// Handler exposes the server's mux (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Drain or Close.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Drain stops admitting new requests (429 / readyz 503), waits for
// in-flight requests to finish within ctx, then syncs the verdict log
// so nothing decided is lost.  Serve returns http.ErrServerClosed.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.o.G(obs.GServeDraining).Set(1)
	err := s.httpSrv.Shutdown(ctx)
	if s.cfg.Log != nil {
		if serr := s.cfg.Log.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// Close shuts the listener and all connections down immediately.
func (s *Server) Close() error { return s.httpSrv.Close() }

// ---- Admission ----

// clientKey identifies the requester for per-client quotas: the API key
// when presented, else the remote host.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return "addr:" + host
	}
	return "addr:" + r.RemoteAddr
}

// acquire admits the request or writes a 429/503-style rejection and
// returns ok=false.  On success the returned release function must be
// called exactly once.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	reject := func(reason string) {
		s.o.C(obs.CServeRejected).Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, reason)
	}
	if s.draining.Load() {
		reject("draining")
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		reject("server at capacity")
		return nil, false
	}
	client := clientKey(r)
	s.clientMu.Lock()
	if s.clients[client] >= s.cfg.PerClientInFlight {
		s.clientMu.Unlock()
		<-s.sem
		reject("client quota exceeded")
		return nil, false
	}
	s.clients[client]++
	s.clientMu.Unlock()
	s.o.G(obs.GServeInFlight).Set(s.inFlight.Add(1))
	return func() {
		s.clientMu.Lock()
		if s.clients[client]--; s.clients[client] == 0 {
			delete(s.clients, client)
		}
		s.clientMu.Unlock()
		<-s.sem
		s.o.G(obs.GServeInFlight).Set(s.inFlight.Add(-1))
	}, true
}

// ---- Wire types ----

type statsJSON struct {
	Nodes           int64 `json:"nodes"`
	Searches        int   `json:"searches"`
	ChaseIterations int   `json:"chase_iterations"`
	ChaseMerges     int   `json:"chase_merges"`
	ChaseRevisited  int   `json:"chase_revisited"`
	ChaseFailed     bool  `json:"chase_failed,omitempty"`
}

func statsOf(st containment.Stats) statsJSON {
	return statsJSON{
		Nodes:           st.Nodes,
		Searches:        st.Searches,
		ChaseIterations: st.ChaseIterations,
		ChaseMerges:     st.ChaseMerges,
		ChaseRevisited:  st.ChaseRevisited,
		ChaseFailed:     st.ChaseFailed,
	}
}

type decideRequest struct {
	Schema    string `json:"schema"`
	Unkeyed   bool   `json:"unkeyed"`
	Left      string `json:"left"`
	Right     string `json:"right"`
	Op        string `json:"op"`
	TimeoutMS int64  `json:"timeout_ms"`
}

type decideResponse struct {
	Holds    bool      `json:"holds"`
	CacheHit bool      `json:"cache_hit"`
	Deduped  bool      `json:"deduped"`
	PairKey  string    `json:"pair_key"`
	Stats    statsJSON `json:"stats"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// maxBodyBytes bounds what one request may make the daemon buffer: a
// whole JSON request body, or one NDJSON line of a batch stream.
const maxBodyBytes = 1 << 20

// maxQueryAtoms caps the body atoms of every query the daemon accepts.
// Parsing is linear in the text, but canonicalization grows faster than
// linearly and never polls the request context, so a query over the cap
// is refused before any decision work starts.
const maxQueryAtoms = 512

// checkQuerySize reports a query over maxQueryAtoms, naming it by what.
func checkQuerySize(what string, q *cq.Query) error {
	if n := len(q.Body); n > maxQueryAtoms {
		return fmt.Errorf("%s has %d atoms, over the cap of %d", what, n, maxQueryAtoms)
	}
	return nil
}

// checkMappingSize applies checkQuerySize to every view of a mapping.
func checkMappingSize(what string, m *mapping.Mapping) error {
	for _, q := range m.Queries {
		if err := checkQuerySize(fmt.Sprintf("%s view %s", what, q.HeadRel), q); err != nil {
			return err
		}
	}
	return nil
}

// decodeBody decodes a JSON request body of at most maxBodyBytes into
// v.  On failure it writes the error response itself — 413 for an
// oversized body, 400 for a malformed one — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
	return false
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// parseOp maps the wire op tag to the engine op.
func parseOp(op string) (engine.Op, error) {
	switch op {
	case "", "equiv":
		return engine.OpEquivalent, nil
	case "contains":
		return engine.OpContained, nil
	default:
		return 0, fmt.Errorf("unknown op %q (want \"equiv\" or \"contains\")", op)
	}
}

// parseSchemaDeps parses the request schema and derives its key
// dependencies (none in unkeyed mode).
func parseSchemaDeps(text string, unkeyed bool) (*schema.Schema, []fd.FD, error) {
	sch, err := schema.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	if unkeyed {
		return sch, nil, nil
	}
	return sch, fd.KeyFDs(sch), nil
}

// timeoutOf resolves a request's decision timeout.
func (s *Server) timeoutOf(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// ---- Handlers ----

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	if s.decideHook != nil {
		s.decideHook()
	}
	var req decideRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sch, deps, err := parseSchemaDeps(req.Schema, req.Unkeyed)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("schema: %v", err))
		return
	}
	left, err := cq.Parse(req.Left)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("left query: %v", err))
		return
	}
	if err := checkQuerySize("left query", left); err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	right, err := cq.Parse(req.Right)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("right query: %v", err))
		return
	}
	if err := checkQuerySize("right query", right); err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	op, err := parseOp(req.Op)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.o.C(obs.CServeRequests).Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutOf(req.TimeoutMS))
	defer cancel()
	res := s.pool.For(sch, deps).Decide(ctx, left, right, op)
	if res.Err != nil {
		if errors.Is(res.Err, context.DeadlineExceeded) || errors.Is(res.Err, context.Canceled) {
			writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("decision timed out: %v", res.Err))
		} else {
			writeError(w, http.StatusUnprocessableEntity, res.Err.Error())
		}
		return
	}
	writeJSON(w, decideResponse{
		Holds:    res.Holds,
		CacheHit: res.CacheHit,
		Deduped:  res.Deduped,
		PairKey:  res.PairKey,
		Stats:    statsOf(res.Stats),
	})
}

// Batch wire format: the first NDJSON line is a header fixing the
// schema for the stream, each further line is one pair, and the
// response streams one verdict line per pair plus a final summary.
type batchHeader struct {
	Schema    string `json:"schema"`
	Unkeyed   bool   `json:"unkeyed"`
	TimeoutMS int64  `json:"timeout_ms"`
}

type batchLine struct {
	Left  string `json:"left"`
	Right string `json:"right"`
	Op    string `json:"op"`
}

type batchResult struct {
	Index    int       `json:"index"`
	Holds    bool      `json:"holds"`
	CacheHit bool      `json:"cache_hit"`
	Deduped  bool      `json:"deduped"`
	Error    string    `json:"error,omitempty"`
	Stats    statsJSON `json:"stats"`
}

type batchSummary struct {
	Summary   bool   `json:"summary"`
	Pairs     int    `json:"pairs"`
	Holding   int    `json:"holding"`
	Errors    int    `json:"errors"`
	CacheHits int    `json:"cache_hits"`
	Nodes     int64  `json:"nodes"`
	Error     string `json:"error,omitempty"` // why the stream stopped early
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	if s.decideHook != nil {
		s.decideHook()
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	if !sc.Scan() {
		writeError(w, http.StatusBadRequest, "empty batch: expected a header line")
		return
	}
	var hdr batchHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("header line: %v", err))
		return
	}
	sch, deps, err := parseSchemaDeps(hdr.Schema, hdr.Unkeyed)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("schema: %v", err))
		return
	}
	eng := s.pool.For(sch, deps)
	timeout := s.timeoutOf(hdr.TimeoutMS)

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	var sum batchSummary
	sum.Summary = true
	i := 0
	for ; sc.Scan(); i++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		out := batchResult{Index: i}
		var line batchLine
		res, lineErr := func() (engine.Result, error) {
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return engine.Result{}, fmt.Errorf("line %d: %v", i, err)
			}
			left, err := cq.Parse(line.Left)
			if err != nil {
				return engine.Result{}, fmt.Errorf("line %d left query: %v", i, err)
			}
			if err := checkQuerySize("left query", left); err != nil {
				return engine.Result{}, fmt.Errorf("line %d: %v", i, err)
			}
			right, err := cq.Parse(line.Right)
			if err != nil {
				return engine.Result{}, fmt.Errorf("line %d right query: %v", i, err)
			}
			if err := checkQuerySize("right query", right); err != nil {
				return engine.Result{}, fmt.Errorf("line %d: %v", i, err)
			}
			op, err := parseOp(line.Op)
			if err != nil {
				return engine.Result{}, fmt.Errorf("line %d: %v", i, err)
			}
			s.o.C(obs.CServeRequests).Add(1)
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			res := eng.Decide(ctx, left, right, op)
			return res, res.Err
		}()
		sum.Pairs++
		if lineErr != nil {
			out.Error = lineErr.Error()
			sum.Errors++
		} else {
			out.Holds = res.Holds
			out.CacheHit = res.CacheHit
			out.Deduped = res.Deduped
			out.Stats = statsOf(res.Stats)
			if res.Holds {
				sum.Holding++
			}
			if res.CacheHit {
				sum.CacheHits++
			}
			sum.Nodes += res.Stats.Nodes
		}
		enc.Encode(out)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := sc.Err(); err != nil {
		// The stream is already committed; report the read failure, line
		// i, in the summary.  No line after it is read.
		sum.Errors++
		sum.Error = fmt.Sprintf("line %d: reading the stream: %v", i, err)
		if errors.Is(err, bufio.ErrTooLong) {
			sum.Error = fmt.Sprintf("line %d exceeds the %d-byte line cap; the stream stopped there", i, maxBodyBytes)
		}
	}
	enc.Encode(sum)
}

type schemaEquivRequest struct {
	Schema1 string `json:"schema1"`
	Schema2 string `json:"schema2"`
	Witness bool   `json:"witness"`
}

type schemaEquivResponse struct {
	Equivalent  bool   `json:"equivalent"`
	Explanation string `json:"explanation"`
	Alpha       string `json:"alpha,omitempty"`
	Beta        string `json:"beta,omitempty"`
}

func (s *Server) handleSchemaEquiv(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	var req schemaEquivRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s1, err := schema.Parse(req.Schema1)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("schema1: %v", err))
		return
	}
	s2, err := schema.Parse(req.Schema2)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("schema2: %v", err))
		return
	}
	s.o.C(obs.CServeRequests).Add(1)
	resp := schemaEquivResponse{
		Equivalent:  dominance.Equivalent(s1, s2),
		Explanation: dominance.Explain(s1, s2),
	}
	if req.Witness && resp.Equivalent {
		wit, found, err := dominance.EquivalentWithWitness(s1, s2)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("witness: %v", err))
			return
		}
		if found {
			resp.Alpha = wit.Alpha.String()
			resp.Beta = wit.Beta.String()
		}
	}
	writeJSON(w, resp)
}

type schemaDominanceRequest struct {
	Schema1   string `json:"schema1"`
	Schema2   string `json:"schema2"`
	Alpha     string `json:"alpha"`
	Beta      string `json:"beta"`
	TimeoutMS int64  `json:"timeout_ms"`
}

type schemaDominanceResponse struct {
	Dominates         bool `json:"dominates"`
	AlphaValid        bool `json:"alpha_valid"`
	BetaValid         bool `json:"beta_valid"`
	RoundTripIdentity bool `json:"round_trip_identity"`
}

// handleSchemaDominance verifies a user-supplied (α, β) pair: validity
// of both mappings plus β∘α = id, with the per-relation equivalences
// routed through the engine pool — so repeated dominance checks hit the
// verdict cache and the persistent store like any other decision.
func (s *Server) handleSchemaDominance(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	var req schemaDominanceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s1, err := schema.Parse(req.Schema1)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("schema1: %v", err))
		return
	}
	s2, err := schema.Parse(req.Schema2)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("schema2: %v", err))
		return
	}
	alpha, err := mapping.Parse(s1, s2, req.Alpha)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("alpha: %v", err))
		return
	}
	if err := checkMappingSize("alpha", alpha); err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	beta, err := mapping.Parse(s2, s1, req.Beta)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("beta: %v", err))
		return
	}
	if err := checkMappingSize("beta", beta); err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	s.o.C(obs.CServeRequests).Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutOf(req.TimeoutMS))
	defer cancel()
	var resp schemaDominanceResponse
	if resp.AlphaValid, err = alpha.IsValid(); err != nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("alpha validity: %v", err))
		return
	}
	if resp.BetaValid, err = beta.IsValid(); err != nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("beta validity: %v", err))
		return
	}
	if resp.AlphaValid && resp.BetaValid {
		resp.RoundTripIdentity, err = mapping.RoundTripIsIdentity(ctx, alpha, beta, s.pool.Equiv)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("round trip timed out: %v", err))
			} else {
				writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("round trip: %v", err))
			}
			return
		}
	}
	resp.Dominates = resp.AlphaValid && resp.BetaValid && resp.RoundTripIdentity
	writeJSON(w, resp)
}

type statsResponse struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Entries   int   `json:"entries"`
		Capacity  int   `json:"capacity"`
	} `json:"cache"`
	Store struct {
		Enabled bool `json:"enabled"`
		Records int  `json:"records"`
	} `json:"store"`
	InFlight int64 `json:"in_flight"`
	Draining bool  `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var resp statsResponse
	cs := s.pool.Stats()
	resp.Cache.Hits = cs.Hits
	resp.Cache.Misses = cs.Misses
	resp.Cache.Evictions = cs.Evictions
	resp.Cache.Entries = cs.Entries
	resp.Cache.Capacity = cs.Capacity
	if s.cfg.Log != nil {
		resp.Store.Enabled = true
		resp.Store.Records = s.cfg.Log.Records()
	}
	resp.InFlight = s.inFlight.Load()
	resp.Draining = s.draining.Load()
	writeJSON(w, resp)
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
