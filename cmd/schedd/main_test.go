package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nocsched/internal/noc"
	"nocsched/internal/serve"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
)

// syncBuffer makes the daemon's stderr safe to read while run() is
// still writing to it from its own goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonLifecycle drives the whole daemon contract in-process:
// warmup flips /readyz, a request solves and its repeat hits the
// cache, SIGTERM drains cleanly with exit success and no
// goroutine-leak report.
func TestDaemonLifecycle(t *testing.T) {
	var stderr syncBuffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0"}, &stderr, ready) }()

	var url string
	select {
	case url = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v\n%s", err, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	if code := getCode(t, url+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d after warmup", code)
	}

	body := workloadBody(t)
	first := postSchedule(t, url, body)
	if first.Cache != serve.CacheMiss {
		t.Errorf("first response cache = %q, want miss", first.Cache)
	}
	second := postSchedule(t, url, body)
	if second.Cache != serve.CacheHit {
		t.Errorf("second response cache = %q, want hit", second.Cache)
	}
	if !bytes.Equal(first.Schedule, second.Schedule) {
		t.Error("repeat submission returned different schedule bytes")
	}

	// SIGTERM → graceful drain → clean exit with no leak report.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	log := stderr.String()
	if strings.Contains(log, "goroutine-leak") {
		t.Errorf("drain leaked goroutines:\n%s", log)
	}
	if !strings.Contains(log, "drained cleanly") {
		t.Errorf("missing clean-drain marker:\n%s", log)
	}
}

// TestHTTPServerTimeouts drives the daemon's HTTP server on a real
// listener: connections that stall inside their request headers are
// closed once readHeaderTimeout passes, while a request whose headers
// trickle in but arrive in time gets the same answer, byte for byte, as
// one sent at once.
func TestHTTPServerTimeouts(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1, Telemetry: telemetry.NewCollector(nil)})
	defer func() { _ = s.Close() }()
	s.MarkReady()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(s.Handler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	addr := ln.Addr().String()

	body := workloadBody(t)
	head := fmt.Sprintf("POST /v1/schedule HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, len(body))
	// send writes one request on a fresh connection, each chunk of its
	// headers pause after the last, and returns the response body.
	send := func(chunks int, pause time.Duration) ([]byte, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		step := (len(head) + chunks - 1) / chunks
		for i := 0; i < len(head); i += step {
			if i > 0 {
				time.Sleep(pause)
			}
			if _, err := io.WriteString(c, head[i:min(i+step, len(head))]); err != nil {
				return nil, err
			}
		}
		if _, err := c.Write(body); err != nil {
			return nil, err
		}
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	// The first request solves; later ones are cache hits, whose bodies
	// echo the first solve's and so are comparable byte for byte.
	if _, err := send(1, 0); err != nil {
		t.Fatal(err)
	}
	want, err := send(1, 0)
	if err != nil {
		t.Fatal(err)
	}

	const stalled = 3
	closed := make(chan error, stalled)
	for i := 0; i < stalled; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := io.WriteString(c, head[:len(head)/2]); err != nil {
			t.Fatal(err)
		}
		go func() {
			// The server closes the connection (EOF, so a nil error from
			// ReadAll) before this deadline, or the read times out.
			_ = c.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
			_, err := io.ReadAll(c)
			closed <- err
		}()
	}
	// A request whose headers take about a fifth of the timeout.
	got, err := send(8, readHeaderTimeout/40)
	if err != nil {
		t.Fatalf("slow request: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("slow request answered differently:\n%s\nwant:\n%s", got, want)
	}
	for i := 0; i < stalled; i++ {
		if err := <-closed; err != nil {
			t.Errorf("stalled connection %d: %v", i, err)
		}
	}
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func postSchedule(t *testing.T, url string, body []byte) *serve.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/schedule = %d: %s", resp.StatusCode, raw)
	}
	var r serve.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &r
}

func workloadBody(t *testing.T) []byte {
	t.Helper()
	spec := noc.PlatformSpec{Topology: "mesh", Width: 3, Height: 3, Routing: "xy", Bandwidth: 256}
	platform, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := tgff.SuiteParams(tgff.CategoryI, 2, platform)
	p.Name = "schedd-test"
	p.Seed = 9
	p.NumTasks = 20
	g, err := tgff.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.Request{Graph: g, Platform: &spec})
	if err != nil {
		t.Fatal(err)
	}
	return body
}
