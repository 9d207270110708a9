package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

// errorCodes is the closed set of ErrorResponse.Error values.
var errorCodes = map[string]bool{
	"bad_request": true, "queue_full": true, "draining": true,
	"deadline_exceeded": true, "solve_failed": true, "verify_failed": true,
}

// perResponse matches the two top-level 200 fields that may differ
// between two answers to one body: the cache disposition, and the
// solve time once an entry is evicted and solved again.
var perResponse = regexp.MustCompile(`(?m)^  "(cache|solve_us)": .*$`)

// checkTyped asserts a response body is well formed for its status: a
// Response for a 200, a typed ErrorResponse for anything else.
func checkTyped(t *testing.T, code int, body []byte) {
	t.Helper()
	if code == http.StatusOK {
		var r Response
		if err := json.Unmarshal(body, &r); err != nil || r.Digest == "" {
			t.Fatalf("200 body is not a Response (%v):\n%s", err, body)
		}
		return
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || !errorCodes[e.Error] {
		t.Fatalf("status %d body is not a typed ErrorResponse (%v):\n%s", code, err, body)
	}
}

// FuzzServeRequest posts arbitrary bodies to a live handler: no body
// may panic the server, every non-200 carries a typed ErrorResponse,
// and a body sent twice gets the same status and bytes apart from the
// cache value and solve_us; a body first answered 200 is answered
// from the body memo the second time. A 504 or 429 on the first send
// is a timing outcome, not a property of the body (a 504's retry is a
// documented hit), so its repeat is not compared.
func FuzzServeRequest(f *testing.F) {
	valid, _, _ := testWorkload(f, 2, 8, "edf")
	var req Request
	if err := json.Unmarshal(valid, &req); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), " trailing"...))
	for _, algo := range []string{"eas", "eas-base", "dls", "sa"} {
		req.Algorithm = algo
		body, _ := json.Marshal(req)
		f.Add(body)
	}
	req.Algorithm = ""
	req.TimeoutMS = 1
	body, _ := json.Marshal(req)
	f.Add(body)
	f.Add([]byte("{"))
	f.Add([]byte(`{"graph":null}`))
	f.Add([]byte(`{"graph":{"name":"g","tasks":[],"edges":[]}}`))
	f.Add([]byte(`{"graph":{"name":"g","tasks":[{"name":"a","exec_time":[1],"energy":[1]}],"edges":[]},` +
		`"platform":{"topology":"torus","width":1000,"height":1000,"bandwidth":1}}`))

	// The handler is called through a ResponseRecorder, not over a
	// connection: coverage then depends on the body rather than on how
	// connection goroutines were scheduled, so the fuzzer does not spend
	// its time minimizing scheduling noise.
	s, _ := testServer(f, Options{Workers: 1})
	h := s.Handler()
	send := func(body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code1, got1 := send(body)
		checkTyped(t, code1, got1)
		if code1 == http.StatusGatewayTimeout || code1 == http.StatusTooManyRequests {
			return
		}
		memoBefore := counterOf(s, MetricBodyMemoHits)
		code2, got2 := send(body)
		checkTyped(t, code2, got2)
		if n := counterOf(s, MetricBodyMemoHits) - memoBefore; code1 == http.StatusOK && n != 1 {
			t.Fatalf("repeat of a body first answered 200 made %d memo hits, want 1", n)
		}
		if code1 != code2 {
			t.Fatalf("same body answered %d then %d:\n%s\n%s", code1, code2, got1, got2)
		}
		if m1, m2 := perResponse.ReplaceAll(got1, nil), perResponse.ReplaceAll(got2, nil); !bytes.Equal(m1, m2) {
			t.Fatalf("same body answered differently:\n%s\n%s", got1, got2)
		}
	})
}
