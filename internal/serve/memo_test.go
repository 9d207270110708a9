package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nocsched/internal/batch"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
	"nocsched/internal/verify"
)

// postRaw submits one request body and returns the status, headers
// and body bytes exactly as written.
func postRaw(t testing.TB, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	code, h, raw, err := doPost(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, h, raw
}

// doPost is postRaw for goroutines other than the test's own.
func doPost(url string, body []byte) (int, http.Header, []byte, error) {
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// encoderBody is the 200 body the handler wrote before responses were
// pre-rendered: the Response re-derived from a serial solve of the
// request, with Cache = src, through a json.Encoder with two-space
// indent. Only solve_us, a timing, is taken from the served body.
func encoderBody(t *testing.T, s *Server, request []byte, digest, src string, served []byte) []byte {
	t.Helper()
	var got Response
	if err := json.Unmarshal(served, &got); err != nil {
		t.Fatalf("decode served body: %v", err)
	}
	sc := serialSchedule(t, s, request)
	var sb strings.Builder
	if err := sc.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	b := sc.Breakdown()
	sw, lk := sc.CommEnergySplit()
	resp := Response{
		Digest:         digest,
		Cache:          src,
		Algorithm:      sc.Algorithm,
		Schedule:       json.RawMessage(strings.TrimRight(sb.String(), "\n")),
		Energy:         EnergySplit{TotalNJ: b.Total, ComputeNJ: b.Computation, CommNJ: b.Communication, SwitchNJ: sw, LinkNJ: lk},
		Makespan:       b.Makespan,
		DeadlineMisses: b.Misses,
		VerifyFindings: len(verify.Check(sc).Findings),
		SolveUS:        got.SolveUS,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRendered asserts one 200 response to request is the encoder's
// output for its disposition, with matching headers.
func checkRendered(t *testing.T, s *Server, request []byte, src string, code int, h http.Header, body []byte) {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", src, code, body)
	}
	if got := h.Get("X-Nocsched-Cache"); got != src {
		t.Fatalf("disposition %q, want %q", got, src)
	}
	if want := strconv.Itoa(len(body)); h.Get("Content-Length") != want {
		t.Errorf("%s: Content-Length %q, body is %s bytes", src, h.Get("Content-Length"), want)
	}
	if want := encoderBody(t, s, request, h.Get("X-Nocsched-Digest"), src, body); !bytes.Equal(body, want) {
		t.Errorf("%s: served body differs from the encoder's output\nserved:\n%s\nencoder:\n%s", src, body, want)
	}
}

// TestRenderedBytesMatchEncoder: a miss, a memo hit, a decoded hit and
// a shared response each write exactly the bytes a json.Encoder with
// two-space indent produces for the Response.
func TestRenderedBytesMatchEncoder(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	body, _, _ := testWorkload(t, 9, 20, "eas")

	code, h, got := postRaw(t, ts.URL, body)
	checkRendered(t, s, body, CacheMiss, code, h, got)
	code, h, got = postRaw(t, ts.URL, body)
	checkRendered(t, s, body, CacheHit, code, h, got)
	if n := counterOf(s, MetricBodyMemoHits); n != 1 {
		t.Fatalf("memo hits = %d after a repeated body, want 1", n)
	}
	// Same workload, other bytes: a hit through decode and digest.
	spaced := append([]byte(" "), body...)
	code, h, got = postRaw(t, ts.URL, spaced)
	checkRendered(t, s, spaced, CacheHit, code, h, got)

	// Shared: take the entry out of the cache and stand a flight in its
	// place, so the next request for the digest must join it.
	digest := h.Get("X-Nocsched-Digest")
	entry := dropEntry(s, digest)
	s.mu.Lock()
	f := &flight{digest: digest, done: make(chan struct{})}
	s.flights[digest] = f
	s.mu.Unlock()
	type result struct {
		code int
		h    http.Header
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		code, h, got, err := doPost(ts.URL, body)
		done <- result{code, h, got, err}
	}()
	waitFor(t, 30*time.Second, func() bool { return counterOf(s, MetricShared) == 1 })
	f.entry = entry
	s.mu.Lock()
	s.cache.put(entry)
	delete(s.flights, digest)
	s.mu.Unlock()
	close(f.done)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkRendered(t, s, body, CacheShared, r.code, r.h, r.body)
}

// TestBodyMemoMatchesFullPath: for key-order, whitespace,
// spelled-default and timeout_ms variants of one request, the digest a
// repeated body is served under from the memo equals WorkloadDigest on
// the decoded request, and all variants share one solve.
func TestBodyMemoMatchesFullPath(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	graph := string(testGraphJSON(t, 4, 14))
	platform := `{"topology":"mesh","width":3,"height":3,"routing":"xy","bandwidth":256}`
	variants := map[string]string{
		"base":            `{"graph":` + graph + `,"platform":` + platform + `,"algorithm":"eas"}`,
		"key order":       `{"algorithm":"eas","platform":` + platform + `,"graph":` + graph + `}`,
		"whitespace":      "{\n  \"graph\": " + graph + ",\n  \"platform\": " + platform + "\n}\n",
		"spelled-default": `{"graph":` + graph + `,"platform":{"bandwidth":256,"height":3,"width":3}}`,
		"timeout_ms":      `{"graph":` + graph + `,"platform":` + platform + `,"timeout_ms":60000}`,
	}
	var first string
	for name, body := range variants {
		want := digestOf(t, []byte(body))
		if first == "" {
			first = want
		} else if want != first {
			t.Fatalf("%s: WorkloadDigest %s differs from another variant's %s", name, want, first)
		}
		memoBefore := counterOf(s, MetricBodyMemoHits)
		for pass := 0; pass < 2; pass++ {
			code, h, got := postRaw(t, ts.URL, []byte(body))
			if code != http.StatusOK {
				t.Fatalf("%s pass %d: status %d: %s", name, pass, code, got)
			}
			var r Response
			if err := json.Unmarshal(got, &r); err != nil {
				t.Fatal(err)
			}
			if r.Digest != want || h.Get("X-Nocsched-Digest") != want {
				t.Errorf("%s pass %d: served digest %s (header %s), WorkloadDigest %s",
					name, pass, r.Digest, h.Get("X-Nocsched-Digest"), want)
			}
		}
		if n := counterOf(s, MetricBodyMemoHits) - memoBefore; n != 1 {
			t.Errorf("%s: %d memo hits over two identical posts, want 1", name, n)
		}
	}
	if solves := counterOf(s, MetricSolves); solves != 1 {
		t.Errorf("solves = %d, want 1 for one workload in five spellings", solves)
	}
}

func memoLen(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memo.recs.len()
}

func cacheLen(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.ll.Len()
}

// dropEntry takes digest's entry out of the cache, as an eviction
// would, and returns it.
func dropEntry(s *Server, digest string) *cacheEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	el := s.cache.byKey[digest]
	entry := el.Value.(*cacheEntry)
	s.cache.ll.Remove(el)
	delete(s.cache.byKey, digest)
	s.cache.bytes -= entry.size
	return entry
}

// serialSchedule re-derives the schedule a request body resolves to by
// a serial solve on a one-worker engine of its own. Solves are
// deterministic, so this is the schedule the server rendered.
func serialSchedule(t *testing.T, s *Server, body []byte) *sched.Schedule {
	t.Helper()
	var req Request
	if err := decodeRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	wl, err := s.resolve(&req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := batch.New(batch.Options{Workers: 1}).Run(context.Background(), []batch.Instance{wl.instance()})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	return res[0].Schedule
}

// TestBodyMemoSkipsRejectedBodies: a rejected body gets the same 400
// each time it is sent and never enters the memo.
func TestBodyMemoSkipsRejectedBodies(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	body, _, _ := testWorkload(t, 3, 10, "eas")
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	req.Algorithm = "sa"
	badAlgo, _ := json.Marshal(req)
	req.Algorithm = ""
	req.Platform = &noc.PlatformSpec{Topology: "mesh", Width: 4, Height: 4, Bandwidth: 256}
	mismatch, _ := json.Marshal(req)
	for name, bad := range map[string][]byte{"not json": []byte("{"), "unknown algorithm": badAlgo, "PE mismatch": mismatch} {
		code1, _, got1 := postRaw(t, ts.URL, bad)
		code2, _, got2 := postRaw(t, ts.URL, bad)
		if code1 != http.StatusBadRequest || code2 != code1 || !bytes.Equal(got1, got2) {
			t.Errorf("%s: got %d %s then %d %s, want the same 400 twice", name, code1, got1, code2, got2)
		}
	}
	if n := memoLen(s); n != 0 {
		t.Errorf("memo holds %d keys after only rejected bodies", n)
	}
	if n := counterOf(s, MetricBodyMemoHits); n != 0 {
		t.Errorf("memo hits = %d for rejected bodies", n)
	}
}

// TestBodyMemoBound: the memo is an LRU of at most CacheEntries keys.
func TestBodyMemoBound(t *testing.T) {
	const entries = 2
	s, ts := testServer(t, Options{Workers: 1, CacheEntries: entries})
	body, _, _ := testWorkload(t, 8, 12, "edf")
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	// Distinct bodies, one workload: timeout_ms is not identity.
	bodies := make([][]byte, entries+1)
	for i := range bodies {
		req.TimeoutMS = int64(60000 + i)
		bodies[i], _ = json.Marshal(req)
		if code, _, got := postRaw(t, ts.URL, bodies[i]); code != http.StatusOK {
			t.Fatalf("POST %d = %d: %s", i, code, got)
		}
	}
	if n := memoLen(s); n > entries {
		t.Fatalf("memo holds %d keys, bound is %d", n, entries)
	}
	// The oldest body fell out: it is a cache hit, but not a memo hit.
	if _, h, _ := postRaw(t, ts.URL, bodies[0]); h.Get("X-Nocsched-Cache") != CacheHit {
		t.Fatalf("evicted body came back as %q, want hit", h.Get("X-Nocsched-Cache"))
	}
	if n := counterOf(s, MetricBodyMemoHits); n != 0 {
		t.Errorf("memo hits = %d, want 0: the oldest body should have been evicted", n)
	}
}

// TestBodyMemoIsExact: a memo record filed under an incoming body's
// key, as a hash collision would file it, but holding other bytes never
// answers that body. The body is decoded and served under its own
// digest, and is not counted as a memo hit.
func TestBodyMemoIsExact(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	a, _, _ := testWorkload(t, 5, 12, "edf")
	b, _, _ := testWorkload(t, 6, 12, "edf")
	_, hb, _ := postRaw(t, ts.URL, b)
	digestA, digestB := digestOf(t, a), hb.Get("X-Nocsched-Digest")
	if digestA == digestB {
		t.Fatal("test workloads share a digest")
	}
	s.mu.Lock()
	s.memo.recs.put(s.memo.key(a), &memoRecord{body: bytes.Clone(b), digest: digestB})
	s.mu.Unlock()

	memoBefore := counterOf(s, MetricBodyMemoHits)
	code, h, got := postRaw(t, ts.URL, a)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	var r Response
	if err := json.Unmarshal(got, &r); err != nil {
		t.Fatal(err)
	}
	if r.Digest != digestA || h.Get("X-Nocsched-Digest") != digestA || r.Cache != CacheMiss {
		t.Errorf("served digest %s (header %s, cache %q), want %s from a miss",
			r.Digest, h.Get("X-Nocsched-Digest"), r.Cache, digestA)
	}
	if n := counterOf(s, MetricBodyMemoHits) - memoBefore; n != 0 {
		t.Errorf("%d memo hits for a body whose record holds other bytes", n)
	}
	// The decode path filed a's own record in place of the planted one.
	if _, h, _ := postRaw(t, ts.URL, a); h.Get("X-Nocsched-Digest") != digestA ||
		counterOf(s, MetricBodyMemoHits)-memoBefore != 1 {
		t.Errorf("repeat: digest %s, %d memo hits; want %s from the memo",
			h.Get("X-Nocsched-Digest"), counterOf(s, MetricBodyMemoHits)-memoBefore, digestA)
	}
}

// TestBodyMemoByteBound: CacheBytes bounds the memo's bodies on their
// own. With every body larger than the bound, the records other than
// the newest retain nothing, as schedCache.put never evicts the newest
// entry; and the memo's byte count is the sum of its records' sizes.
func TestBodyMemoByteBound(t *testing.T) {
	const bound = 1 << 10
	s, ts := testServer(t, Options{Workers: 1, CacheBytes: bound})
	for i := 0; i < 4; i++ {
		body, _, _ := testWorkload(t, int64(20+i), 12, "edf")
		if len(body) <= bound {
			t.Fatalf("test body is only %d bytes", len(body))
		}
		if code, _, got := postRaw(t, ts.URL, body); code != http.StatusOK {
			t.Fatalf("POST %d = %d: %s", i, code, got)
		}
		s.mu.Lock()
		recs := s.memo.recs
		var sum int64
		for el := recs.ll.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*lruEntry[uint64, *memoRecord]).val.size()
		}
		newest := recs.ll.Front().Value.(*lruEntry[uint64, *memoRecord]).val
		retained, n := recs.bytes, recs.len()
		s.mu.Unlock()
		if sum != retained {
			t.Fatalf("POST %d: memo counts %d bytes, its records hold %d", i, retained, sum)
		}
		if !bytes.Equal(newest.body, body) {
			t.Fatalf("POST %d: the newest record is not the body just sent", i)
		}
		if retained-newest.size() > bound {
			t.Errorf("POST %d: %d records retain %d bytes beyond the newest, bound %d",
				i, n, retained-newest.size(), bound)
		}
	}
}

// TestServeBodyTooLarge: a body over MaxBodyBytes is a typed 400.
func TestServeBodyTooLarge(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, MaxBodyBytes: 256})
	body, _, _ := testWorkload(t, 3, 10, "eas")
	if len(body) <= 256 {
		t.Fatalf("test body is only %d bytes", len(body))
	}
	code, _, e := post(t, ts.URL, body)
	if code != http.StatusBadRequest || e.Error != "bad_request" {
		t.Fatalf("oversize body: status %d %+v, want 400 bad_request", code, e)
	}
	if !strings.Contains(e.Detail, "too large") {
		t.Errorf("detail %q does not name the size limit", e.Detail)
	}
	if n := memoLen(s); n != 0 {
		t.Errorf("memo holds %d keys after an oversize body", n)
	}
}

// TestCacheCountsEachRequestOnce: every request that reaches the cache
// lookup counts exactly one hit or one miss, whether it is a miss, a
// memo hit, a memo hit whose digest was evicted, a decoded hit, or a
// request that joined an in-flight solve.
func TestCacheCountsEachRequestOnce(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, CacheEntries: 8})
	a, _, _ := testWorkload(t, 12, 12, "edf")
	b, _, _ := testWorkload(t, 13, 12, "edf")
	c, _, _ := testWorkload(t, 14, 40, "eas")
	counts := func() (hits, misses int64) {
		return counterOf(s, MetricCacheHits), counterOf(s, MetricCacheMisses)
	}
	expect := func(step string, hits, misses, memo int64) {
		t.Helper()
		h, m := counts()
		if h != hits || m != misses || counterOf(s, MetricBodyMemoHits) != memo {
			t.Fatalf("%s: hits %d misses %d memo %d, want %d %d %d",
				step, h, m, counterOf(s, MetricBodyMemoHits), hits, misses, memo)
		}
	}
	send := func(body []byte, want string) string {
		t.Helper()
		code, h, got := postRaw(t, ts.URL, body)
		if code != http.StatusOK || h.Get("X-Nocsched-Cache") != want {
			t.Fatalf("status %d cache %q, want 200 %q: %s", code, h.Get("X-Nocsched-Cache"), want, got)
		}
		return h.Get("X-Nocsched-Digest")
	}
	digestA := send(a, CacheMiss)
	expect("miss a", 0, 1, 0)
	send(b, CacheMiss)
	expect("miss b", 0, 2, 0)
	// Evict a's entry while its body stays in the memo: the way to a
	// memo record whose digest is no longer cached.
	dropEntry(s, digestA)
	send(a, CacheMiss)
	expect("memo hit, entry evicted", 0, 3, 0)
	send(a, CacheHit)
	expect("memo hit", 1, 3, 1)
	send(append([]byte("\n"), a...), CacheHit)
	expect("decoded hit", 2, 3, 1)
	if code, _, _ := postRaw(t, ts.URL, []byte("{")); code != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", code)
	}
	expect("rejected body", 2, 3, 1)

	const herd = 6
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _, got, err := doPost(ts.URL, c); err != nil || code != http.StatusOK {
				t.Errorf("herd: status %d (%v): %s", code, err, got)
			}
		}()
	}
	wg.Wait()
	h, m := counts()
	if h+m != 5+herd {
		t.Errorf("hits %d + misses %d = %d, want %d requests that reached the lookup", h, m, h+m, 5+herd)
	}
	if shared := counterOf(s, MetricShared); shared > m-3 {
		t.Errorf("shared %d exceeds the herd's %d misses", shared, m-3)
	}
	if memo := counterOf(s, MetricBodyMemoHits); memo > h {
		t.Errorf("memo hits %d exceed cache hits %d", memo, h)
	}
}

// TestLyingContentLength: a request that claims 8 MiB (the default
// MaxBodyBytes) but carries one byte gets its 400 without schedd
// reserving the claimed size. The handler allocates about 1 MiB, the
// most readBody reserves; a build with the race detector allocates
// that reservation twice, so the bound is 3 MiB.
func TestLyingContentLength(t *testing.T) {
	s := New(Options{Workers: 1, Telemetry: telemetry.NewCollector(nil)})
	s.MarkReady()
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	h := s.Handler()
	const claimed, bound = 8 << 20, 3 << 20
	// Two collections empty bodyBufs, so the request starts from a new
	// buffer, as on a cold server.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader("{"))
	r.ContentLength = claimed
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= bound {
		t.Errorf("a %d-byte claim with a 1-byte body allocated %d bytes, want < %d", claimed, alloc, bound)
	}
}
