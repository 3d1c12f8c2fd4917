package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"keyedeq/internal/containment"
	"keyedeq/internal/engine"
	"keyedeq/internal/obs"
	"keyedeq/internal/store"
)

const graphSchema = "edge(src:T1, dst:T1)"

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postJSON drives a handler directly (no network) and decodes the
// response when out is non-nil.
func postJSON(t *testing.T, s *Server, path string, body interface{}, out interface{}) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(b)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s response %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec
}

func decideBody(left, right string) decideRequest {
	return decideRequest{Schema: graphSchema, Unkeyed: true, Left: left, Right: right}
}

func TestDecideEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp decideResponse
	rec := postJSON(t, s, "/v1/decide", decideBody(
		"V(X) :- edge(X, Y).",
		"V(A) :- edge(A, B).",
	), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("decide status %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Holds || resp.PairKey == "" {
		t.Fatalf("decide response %+v, want holds with a pair key", resp)
	}
	if resp.CacheHit {
		t.Fatal("first decision reported a cache hit")
	}
	var resp2 decideResponse
	postJSON(t, s, "/v1/decide", decideBody(
		"V(X) :- edge(X, Y).",
		"V(A) :- edge(A, B).",
	), &resp2)
	if !resp2.CacheHit {
		t.Fatalf("second decision not a cache hit: %+v", resp2)
	}

	// contains op, asymmetric pair.
	var sub decideResponse
	req := decideBody("V(X) :- edge(X, Y), edge(W, Z), Y = W.", "V(X) :- edge(X, Y).")
	req.Op = "contains"
	rec = postJSON(t, s, "/v1/decide", req, &sub)
	if rec.Code != http.StatusOK || !sub.Holds {
		t.Fatalf("contains: status %d resp %+v", rec.Code, sub)
	}
}

func TestDecideBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		body decideRequest
	}{
		{"bad schema", decideRequest{Schema: "not a schema", Left: "V(X) :- e(X).", Right: "V(X) :- e(X)."}},
		{"bad left", func() decideRequest { r := decideBody("nope", "V(X) :- edge(X, Y)."); return r }()},
		{"bad op", func() decideRequest {
			r := decideBody("V(X) :- edge(X, Y).", "V(X) :- edge(X, Y).")
			r.Op = "xor"
			return r
		}()},
	}
	for _, tc := range cases {
		if rec := postJSON(t, s, "/v1/decide", tc.body, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rec.Code)
		}
	}
	// Malformed JSON body.
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader("{"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", rec.Code)
	}
}

// TestOversizedBodiesRejected sends a JSON body one byte over the cap
// to every JSON endpoint: each must refuse it with a JSON 413 rather
// than buffer it, while a body exactly at the cap is still read.
func TestOversizedBodiesRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	// One JSON value whose string field pads the body to n bytes, so the
	// decoder must read all of it to finish the value.
	padded := func(n int) string {
		prefix, suffix := `{"schema":"`, `"}`
		return prefix + strings.Repeat("x", n-len(prefix)-len(suffix)) + suffix
	}
	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}
	for _, path := range []string{"/v1/decide", "/v1/schema/equiv", "/v1/schema/dominance"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			// At the cap the body decodes and fails later, on its schema.
			if rec := post(path, padded(maxBodyBytes)); rec.Code != http.StatusBadRequest {
				t.Fatalf("body at the cap: status %d, want 400", rec.Code)
			}
			rec := post(path, padded(maxBodyBytes+1))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413", rec.Code)
			}
			var resp map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp["error"] == "" {
				t.Fatalf("413 body %q is not a JSON error (%v)", rec.Body.String(), err)
			}
		})
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	var b strings.Builder
	fmt.Fprintf(&b, `{"schema":%q,"unkeyed":true}`+"\n", graphSchema)
	b.WriteString(`{"left":"V(X) :- edge(X, Y).","right":"V(A) :- edge(A, B)."}` + "\n")
	b.WriteString(`{"left":"V(X) :- edge(X, Y).","right":"V(A) :- edge(A, B)."}` + "\n") // same pair: cache/dedup
	b.WriteString(`{"left":"broken","right":"V(A) :- edge(A, B)."}` + "\n")
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(b.String()))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	sc := bufio.NewScanner(rec.Body)
	var results []batchResult
	var sum batchSummary
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"summary":true`) {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var br batchResult
		if err := json.Unmarshal(sc.Bytes(), &br); err != nil {
			t.Fatal(err)
		}
		results = append(results, br)
	}
	if len(results) != 3 {
		t.Fatalf("batch returned %d result lines, want 3: %s", len(results), rec.Body.String())
	}
	if !results[0].Holds || results[0].Error != "" {
		t.Fatalf("line 0: %+v", results[0])
	}
	if !results[1].CacheHit {
		t.Fatalf("line 1 should hit the cache: %+v", results[1])
	}
	if results[2].Error == "" {
		t.Fatalf("line 2 should carry a parse error: %+v", results[2])
	}
	if sum.Pairs != 3 || sum.Errors != 1 || sum.Holding != 2 || sum.CacheHits != 1 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestSchemaEquivEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp schemaEquivResponse
	rec := postJSON(t, s, "/v1/schema/equiv", schemaEquivRequest{
		Schema1: "employee(ss*:T1, name:T2)",
		Schema2: "emp(id*:T1, nm:T2)",
		Witness: true,
	}, &resp)
	if rec.Code != http.StatusOK || !resp.Equivalent {
		t.Fatalf("status %d resp %+v", rec.Code, resp)
	}
	if resp.Alpha == "" || resp.Beta == "" {
		t.Fatalf("witness missing: %+v", resp)
	}
	var neq schemaEquivResponse
	postJSON(t, s, "/v1/schema/equiv", schemaEquivRequest{
		Schema1: "r(a*:T1)",
		Schema2: "r(a*:T1, b:T2)",
	}, &neq)
	if neq.Equivalent {
		t.Fatalf("inequivalent schemas reported equivalent: %+v", neq)
	}
	if neq.Explanation == "" {
		t.Fatal("no explanation for inequivalence")
	}
}

func TestSchemaDominanceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp schemaDominanceResponse
	rec := postJSON(t, s, "/v1/schema/dominance", schemaDominanceRequest{
		Schema1: "r(a*:T1)",
		Schema2: "p(a*:T1, b:T1)",
		Alpha:   "p(X, X) :- r(X).",
		Beta:    "r(X) :- p(X, Y).",
	}, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Dominates || !resp.AlphaValid || !resp.BetaValid || !resp.RoundTripIdentity {
		t.Fatalf("dominance response %+v, want all true", resp)
	}
	// The round-trip equivalences went through the engine set, so the
	// same check again is answered from the verdict cache.
	postJSON(t, s, "/v1/schema/dominance", schemaDominanceRequest{
		Schema1: "r(a*:T1)",
		Schema2: "p(a*:T1, b:T1)",
		Alpha:   "p(X, X) :- r(X).",
		Beta:    "r(X) :- p(X, Y).",
	}, &resp)
	if cs := s.pool.Stats(); cs.Hits == 0 {
		t.Fatalf("dominance decisions bypassed the cache: %+v", cs)
	}
}

// stallSink holds up the first canonicalize span it receives for
// stall, so the decision that emits it outlives a shorter deadline.
type stallSink struct {
	once  sync.Once
	stall time.Duration
}

func (s *stallSink) Emit(sp *obs.Span) {
	if sp.Stage == obs.StageCanonicalize {
		s.once.Do(func() { time.Sleep(s.stall) })
	}
}

// TestSchemaDominanceDeadlineInsideDecision lets the request's deadline
// expire inside pool.Equiv: a span sink stalls the round trip's one
// equivalence decision at its canonicalization, past the deadline, so
// the decision returns the deadline error.  β's redundant atom keeps
// the composed view from being isomorphic to the identity, so the
// decision reaches the chase, which sees the expired context.  The
// endpoint must answer 504, as it does when the deadline falls between
// decisions.
func TestSchemaDominanceDeadlineInsideDecision(t *testing.T) {
	sink := &stallSink{stall: 250 * time.Millisecond}
	s := newTestServer(t, Config{Obs: &obs.Obs{Reg: obs.NewRegistry(), Sink: sink}})
	rec := postJSON(t, s, "/v1/schema/dominance", schemaDominanceRequest{
		Schema1:   "r(a*:T1, b:T2)",
		Schema2:   "p(x*:T1, y:T2)",
		Alpha:     "p(X, Y) :- r(X, Y).",
		Beta:      "r(X, Y) :- p(X, Y), p(X2, Z), X = X2.",
		TimeoutMS: 50,
	}, nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", rec.Code, rec.Body.String())
	}
}

func TestHealthAndStats(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status %d", path, rec.Code)
		}
	}
	postJSON(t, s, "/v1/decide", decideBody("V(X) :- edge(X, Y).", "V(A) :- edge(A, B)."), nil)
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Entries == 0 {
		t.Fatalf("stats after a decision: %+v", st)
	}
}

func TestMetricsMounted(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Obs: &obs.Obs{Reg: reg}})
	postJSON(t, s, "/v1/decide", decideBody("V(X) :- edge(X, Y).", "V(A) :- edge(A, B)."), nil)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "keyedeq_serve_requests_total 1") {
		t.Fatalf("/metrics: status %d body %.2000s", rec.Code, rec.Body.String())
	}
}

func TestPerClientQuota(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{PerClientInFlight: 1, Obs: &obs.Obs{Reg: reg}})
	entered := make(chan struct{})
	unblock := make(chan struct{})
	s.decideHook = func() {
		entered <- struct{}{}
		<-unblock
	}
	body, _ := json.Marshal(decideBody("V(X) :- edge(X, Y).", "V(A) :- edge(A, B)."))
	done := make(chan int)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(string(body)))
		req.Header.Set("X-API-Key", "alice")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		done <- rec.Code
	}()
	<-entered // first request holds its slot inside the hook

	// Same client: over quota → 429 with Retry-After.
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(string(body)))
	req.Header.Set("X-API-Key", "alice")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("same-client second request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// A different client is unaffected.
	s.decideHook = nil
	req = httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(string(body)))
	req.Header.Set("X-API-Key", "bob")
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("other-client request: status %d, want 200", rec.Code)
	}

	close(unblock)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocked request finished with %d, want 200", code)
	}
	if got := reg.C(obs.CServeRejected).Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

func TestGlobalInFlightBound(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, PerClientInFlight: 8})
	entered := make(chan struct{})
	unblock := make(chan struct{})
	s.decideHook = func() {
		entered <- struct{}{}
		<-unblock
	}
	body, _ := json.Marshal(decideBody("V(X) :- edge(X, Y).", "V(A) :- edge(A, B)."))
	done := make(chan int)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(string(body)))
		req.Header.Set("X-API-Key", "alice")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		done <- rec.Code
	}()
	<-entered

	// Different client, but the global bound is saturated.
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(string(body)))
	req.Header.Set("X-API-Key", "bob")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429", rec.Code)
	}
	close(unblock)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocked request finished with %d, want 200", code)
	}
}

func TestDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	entered := make(chan struct{})
	unblock := make(chan struct{})
	s.decideHook = func() {
		entered <- struct{}{}
		<-unblock
	}
	body, _ := json.Marshal(decideBody("V(X) :- edge(X, Y).", "V(A) :- edge(A, B)."))
	inFlight := make(chan int)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/decide", "application/json", strings.NewReader(string(body)))
		if err != nil {
			inFlight <- -1
			return
		}
		resp.Body.Close()
		inFlight <- resp.StatusCode
	}()
	<-entered // request is in flight on the real server

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Wait until the drain flag is visible, then assert new work is
	// refused at the handler level while the in-flight request is still
	// parked.
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("request during drain: status %d, want 429", rec.Code)
	}
	rdy := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rrec, rdy)
	if rrec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", rrec.Code)
	}

	close(unblock)
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
}

// TestRestartWarmStart is the core persistence contract: decisions made
// before a restart come back as cache hits afterwards, with the
// original work stats frozen and no new engine work performed.
func TestRestartWarmStart(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "verdicts.log")
	log, err := store.Open(logPath, store.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Config{Log: log})
	var first decideResponse
	rec := postJSON(t, s1, "/v1/decide", decideBody(
		"V(X) :- edge(X, Y), edge(W, Z), Y = W.",
		"V(A) :- edge(A, B), edge(C, D), B = C.",
	), &first)
	if rec.Code != http.StatusOK || first.CacheHit {
		t.Fatalf("first decision: status %d resp %+v", rec.Code, first)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := store.Open(logPath, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	reg := obs.NewRegistry()
	s2 := newTestServer(t, Config{Log: log2, Obs: &obs.Obs{Reg: reg}})
	var again decideResponse
	rec = postJSON(t, s2, "/v1/decide", decideBody(
		"V(X) :- edge(X, Y), edge(W, Z), Y = W.",
		"V(A) :- edge(A, B), edge(C, D), B = C.",
	), &again)
	if rec.Code != http.StatusOK {
		t.Fatalf("restart decision: status %d: %s", rec.Code, rec.Body.String())
	}
	if !again.CacheHit {
		t.Fatalf("decision after restart not a cache hit: %+v", again)
	}
	if again.Holds != first.Holds || again.Stats != first.Stats {
		t.Fatalf("warm verdict drifted: first %+v, again %+v", first, again)
	}
	// Frozen work counters: the warm hit computed nothing new.
	if got := reg.C(obs.CPairsComputed).Value(); got != 0 {
		t.Fatalf("pairs computed after restart = %d, want 0", got)
	}
	if got := reg.C(obs.CCacheHits).Value(); got != 1 {
		t.Fatalf("cache hits after restart = %d, want 1", got)
	}
	if got := reg.C(obs.CStoreReplayed).Value(); got == 0 {
		t.Fatal("no records counted as replayed")
	}
}

// TestBootCompaction drives the append history far past the live set
// and checks boot rewrites the log.
func TestBootCompaction(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "verdicts.log")
	log, err := store.Open(logPath, store.Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// 2048 appends over 4 distinct keys: total ≫ 2·live.
	for i := 0; i < 2048; i++ {
		rec := store.Record{Key: fmt.Sprintf("fp\x1d%d", i%4), Holds: i%2 == 0}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := store.Open(logPath, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	reg := obs.NewRegistry()
	newTestServer(t, Config{Log: log2, Obs: &obs.Obs{Reg: reg}})
	if got := log2.Records(); got != 4 {
		t.Fatalf("records after boot compaction = %d, want 4", got)
	}
	if got := reg.C(obs.CStoreCompactions).Value(); got != 1 {
		t.Fatalf("compaction counter = %d, want 1", got)
	}
	if got := reg.C(obs.CStoreReplayed).Value(); got != 2048 {
		t.Fatalf("replayed counter = %d, want 2048", got)
	}
}

// productQuery renders a query over edge with n independent atoms,
// written without spaces so large ones stay compact.
func productQuery(head string, n int) string {
	var b strings.Builder
	b.WriteString(head + "(X0) :- ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "edge(X%d,Y%d)", i, i)
	}
	b.WriteByte('.')
	return b.String()
}

// TestQueryAtomCap sends a query at maxQueryAtoms and one over it to
// every endpoint that accepts queries: the first is decided, the second
// refused — a JSON 413 naming the side for decide and dominance, a
// per-line error for batch, whose next line is still decided.
func TestQueryAtomCap(t *testing.T) {
	s := newTestServer(t, Config{})
	small := "V(X) :- edge(X, Y)."
	for _, n := range []int{maxQueryAtoms, maxQueryAtoms + 1} {
		over := n > maxQueryAtoms
		big := productQuery("V", n)
		t.Run(fmt.Sprintf("decide/%d", n), func(t *testing.T) {
			for _, side := range []string{"left", "right"} {
				body := decideBody(big, small)
				if side == "right" {
					body = decideBody(small, big)
				}
				rec := postJSON(t, s, "/v1/decide", body, nil)
				if !over {
					if rec.Code != http.StatusOK {
						t.Fatalf("%s at the cap: status %d: %s", side, rec.Code, rec.Body.String())
					}
					continue
				}
				var resp map[string]string
				if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
					!strings.Contains(resp["error"], side+" query has") {
					t.Fatalf("%s over the cap: status %d body %q, want a JSON 413 naming the side", side, rec.Code, rec.Body.String())
				}
			}
		})
		t.Run(fmt.Sprintf("batch/%d", n), func(t *testing.T) {
			var b strings.Builder
			fmt.Fprintf(&b, `{"schema":%q,"unkeyed":true}`+"\n", graphSchema)
			for _, line := range []batchLine{{Left: big, Right: small}, {Left: small, Right: small}} {
				enc, err := json.Marshal(line)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(append(enc, '\n'))
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(b.String()))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
			if rec.Code != http.StatusOK || len(lines) != 3 {
				t.Fatalf("status %d, %d lines: %s", rec.Code, len(lines), rec.Body.String())
			}
			var first, second batchResult
			if json.Unmarshal([]byte(lines[0]), &first) != nil || json.Unmarshal([]byte(lines[1]), &second) != nil {
				t.Fatalf("undecodable result lines: %s", rec.Body.String())
			}
			if over != strings.Contains(first.Error, "over the cap") {
				t.Fatalf("line 0 error %q, over the cap: %v", first.Error, over)
			}
			if second.Error != "" || !second.Holds {
				t.Fatalf("line 1 after the capped line: %+v", second)
			}
		})
		t.Run(fmt.Sprintf("dominance/%d", n), func(t *testing.T) {
			// α defines p with an n-atom body; only its size matters.
			var alpha strings.Builder
			alpha.WriteString("p(X0, X0) :- ")
			for i := 0; i < n; i++ {
				if i > 0 {
					alpha.WriteByte(',')
				}
				fmt.Fprintf(&alpha, "r(X%d)", i)
			}
			alpha.WriteByte('.')
			rec := postJSON(t, s, "/v1/schema/dominance", schemaDominanceRequest{
				Schema1: "r(a*:T1)",
				Schema2: "p(a*:T1, b:T1)",
				Alpha:   alpha.String(),
				Beta:    "r(X) :- p(X, Y).",
			}, nil)
			if !over {
				if rec.Code != http.StatusOK {
					t.Fatalf("at the cap: status %d: %s", rec.Code, rec.Body.String())
				}
				return
			}
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "alpha view p has") {
				t.Fatalf("over the cap: status %d body %q, want a 413 naming alpha", rec.Code, rec.Body.String())
			}
		})
	}
}

// TestHugeQueryRefusedQuickly sends a decide body just under
// maxBodyBytes whose left query has 50,000 atoms: it must be refused
// with 413 in seconds, not after minutes of parsing.
func TestHugeQueryRefusedQuickly(t *testing.T) {
	s := newTestServer(t, Config{})
	body, err := json.Marshal(decideBody(productQuery("V", 50000), "V(X) :- edge(X, Y)."))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxBodyBytes {
		t.Fatalf("body is %d bytes, over the %d-byte cap", len(body), maxBodyBytes)
	}
	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("refusal took %v, want under 10s", elapsed)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "left query has 50000 atoms") {
		t.Fatalf("status %d body %q, want a 413 for the left query", rec.Code, rec.Body.String())
	}
}

// getStats reads GET /v1/stats.
func getStats(t *testing.T, s *Server) statsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding /v1/stats %q: %v", rec.Body.String(), err)
	}
	return st
}

// renamedDecide is a decide request over the graph schema with its
// second attribute renamed to name: the same pair under a new schema.
func renamedDecide(name string) decideRequest {
	r := decideBody("V(X) :- edge(X, Y), edge(W, Z), Y = W.", "V(A) :- edge(A, B).")
	r.Schema = "edge(src:T1, " + name + ":T1)"
	return r
}

// TestCacheEntriesGaugeMatchesStats decides over two schemas: the
// keyedeq_cache_entries gauge must read what /v1/stats reports, not the
// count of whichever schema decided last.
func TestCacheEntriesGaugeMatchesStats(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Obs: &obs.Obs{Reg: reg}})
	for _, req := range []decideRequest{
		decideBody("V(X) :- edge(X, Y).", "V(A) :- edge(A, B), edge(C, D), B = C."),
		decideBody("V(X) :- edge(X, Y).", "V(A) :- edge(A, B), edge(C, D), A = C."),
		renamedDecide("dst2"),
	} {
		if rec := postJSON(t, s, "/v1/decide", req, nil); rec.Code != http.StatusOK {
			t.Fatalf("decide: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	st := getStats(t, s)
	if st.Cache.Entries != 3 {
		t.Fatalf("/v1/stats entries = %d, want 3", st.Cache.Entries)
	}
	if got := reg.G(obs.GCacheEntries).Value(); got != int64(st.Cache.Entries) {
		t.Fatalf("keyedeq_cache_entries = %d, /v1/stats entries = %d", got, st.Cache.Entries)
	}
}

// TestCacheBoundedAcrossSchemas sends thousands of decisions that
// differ only in an attribute name, so each names a new schema: the
// daemon's one cache must keep the capacity it was given.
func TestCacheBoundedAcrossSchemas(t *testing.T) {
	const capacity = 64
	s := newTestServer(t, Config{Engine: engine.Options{CacheSize: capacity}})
	for i := 0; i < 2000; i++ {
		if rec := postJSON(t, s, "/v1/decide", renamedDecide(fmt.Sprintf("d%d", i)), nil); rec.Code != http.StatusOK {
			t.Fatalf("decide %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	st := getStats(t, s)
	if st.Cache.Capacity != capacity || st.Cache.Entries > capacity {
		t.Fatalf("cache after 2000 schemas: %+v, want capacity %d and at most %d entries", st.Cache, capacity, capacity)
	}
	if st.Cache.Evictions == 0 {
		t.Fatalf("no evictions after 2000 distinct verdicts: %+v", st.Cache)
	}
}

// TestWarmStartLogOutgrowsCache boots a daemon whose cache holds a
// quarter of the log's verdicts: the newest verdict must come back
// warm, the oldest must not, and the cache must stay within its bound.
func TestWarmStartLogOutgrowsCache(t *testing.T) {
	const capacity = 32
	logPath := filepath.Join(t.TempDir(), "verdicts.log")
	log, err := store.Open(logPath, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Config{Log: log})
	for i := 0; i < 4*capacity; i++ {
		if rec := postJSON(t, s1, "/v1/decide", renamedDecide(fmt.Sprintf("d%d", i)), nil); rec.Code != http.StatusOK {
			t.Fatalf("decide %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := store.Open(logPath, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	reg := obs.NewRegistry()
	s2 := newTestServer(t, Config{Log: log2, Obs: &obs.Obs{Reg: reg}, Engine: engine.Options{CacheSize: capacity}})
	st := getStats(t, s2)
	if st.Cache.Entries == 0 || st.Cache.Entries > capacity {
		t.Fatalf("cache after boot: %+v, want between 1 and %d entries", st.Cache, capacity)
	}
	if got := reg.G(obs.GCacheEntries).Value(); got != int64(st.Cache.Entries) {
		t.Fatalf("keyedeq_cache_entries after boot = %d, /v1/stats entries = %d", got, st.Cache.Entries)
	}
	var newest, oldest decideResponse
	postJSON(t, s2, "/v1/decide", renamedDecide(fmt.Sprintf("d%d", 4*capacity-1)), &newest)
	if !newest.CacheHit {
		t.Fatalf("newest verdict after boot: %+v, want a cache hit", newest)
	}
	postJSON(t, s2, "/v1/decide", renamedDecide("d0"), &oldest)
	if oldest.CacheHit {
		t.Fatalf("oldest verdict after boot: %+v, want a miss", oldest)
	}
	if st := getStats(t, s2); st.Cache.Entries > capacity {
		t.Fatalf("cache after boot: %+v, want at most %d entries", st.Cache, capacity)
	}
}

// TestBootCompactionKeepsLogOrder compacts a log whose keys were last
// written in an order no map iteration reproduces reliably: the
// compacted log must hold each key's newest record, in log order.
func TestBootCompactionKeepsLogOrder(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "verdicts.log")
	log, err := store.Open(logPath, store.Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	var want []string
	for i := 0; i < 2048; i++ {
		// The last pass writes the keys in reverse.
		k := i % keys
		if i >= 2048-keys {
			k = keys - 1 - k
		}
		rec := store.Record{Key: fmt.Sprintf("fp\x1dk%02d", k), Stats: containment.Stats{Nodes: int64(i)}}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i >= 2048-keys {
			want = append(want, fmt.Sprintf("%s@%d", rec.Key, i))
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := store.Open(logPath, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	newTestServer(t, Config{Log: log2})
	var got []string
	if err := log2.Replay(func(r store.Record) error {
		got = append(got, fmt.Sprintf("%s@%d", r.Key, r.Stats.Nodes))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("compacted log:\n%v\nwant:\n%v", got, want)
	}
}

// TestBatchOversizedLine sends a batch line one byte over the cap
// between two good lines: the first is decided, and the summary must
// say which line stopped the stream and why.
func TestBatchOversizedLine(t *testing.T) {
	s := newTestServer(t, Config{})
	good := `{"left":"V(X) :- edge(X, Y).","right":"V(A) :- edge(A, B)."}` + "\n"
	var b strings.Builder
	fmt.Fprintf(&b, `{"schema":%q,"unkeyed":true}`+"\n", graphSchema)
	b.WriteString(good)
	b.WriteString(strings.Repeat("x", maxBodyBytes+1) + "\n")
	b.WriteString(good)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(b.String())))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if rec.Code != http.StatusOK || len(lines) != 2 {
		t.Fatalf("status %d, %d lines: %s", rec.Code, len(lines), rec.Body.String())
	}
	var first batchResult
	var sum batchSummary
	if json.Unmarshal([]byte(lines[0]), &first) != nil || json.Unmarshal([]byte(lines[1]), &sum) != nil {
		t.Fatalf("undecodable lines: %s", rec.Body.String())
	}
	if first.Index != 0 || !first.Holds || first.Error != "" {
		t.Fatalf("line 0: %+v", first)
	}
	if !sum.Summary || sum.Pairs != 1 || sum.Errors != 1 ||
		!strings.Contains(sum.Error, "line 1 ") || !strings.Contains(sum.Error, fmt.Sprint(maxBodyBytes)) {
		t.Fatalf("summary %+v, want an error naming line 1 and the %d-byte cap", sum, maxBodyBytes)
	}
}
