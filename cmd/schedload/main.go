// Command schedload is the load generator for the schedd scheduling
// daemon: it builds a fixed set of distinct TGFF-style workloads,
// waits for the daemon's /readyz, solves each workload once (the cold
// phase), then replays them in a concurrent warm burst that should be
// answered almost entirely from the daemon's content-addressed cache.
// The report (BENCH_serve.json schema) carries throughput, p50/p99
// latency, the cache hit ratio, and the cold-vs-warm speedup.
//
// Usage:
//
//	schedload [-url http://127.0.0.1:9821] [-mesh 4x4] [-tasks 60]
//	          [-workloads 8] [-requests 200] [-concurrency 8]
//	          [-scheds eas,edf,dls] [-seed 1] [-wait 30s]
//	          [-o BENCH_serve.json]
//
// The report is gated before it is written: every response for a
// workload must be bit-identical to that workload's cold solve (byte
// equality plus sched.Diff on the re-loaded schedules), every schedule
// must pass the internal/verify oracle, and any 5xx fails the run. A
// report that exists is therefore a correctness witness, not just a
// timing record. 429s do not fail the run — they are the daemon's
// documented retryable backpressure and are retried with backoff and
// counted in status_429_retries.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/serve"
	"nocsched/internal/tgff"
	"nocsched/internal/verify"
)

// report is the top-level BENCH_serve.json document.
type report struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Seed        int64  `json:"seed"`
	Concurrency int    `json:"concurrency"`
	Scheds      string `json:"scheds"`
	Cells       []cell `json:"cells"`
}

// cell is one load run against one (mesh, tasks) workload set.
type cell struct {
	Mesh      string `json:"mesh"`
	Tasks     int    `json:"tasks"`
	Requests  int    `json:"requests"`
	Workloads int    `json:"workloads"`

	Status2xx int `json:"status_2xx"`
	Status429 int `json:"status_429_retries"`
	Status5xx int `json:"status_5xx"`
	Solves    int `json:"solves"`

	HitRatio      float64 `json:"hit_ratio"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	ColdMS        float64 `json:"cold_ms"`
	WarmMS        float64 `json:"warm_ms"`
	WarmSpeedup   float64 `json:"warm_speedup"`

	Identical bool `json:"identical"`
	Verified  bool `json:"verified"`
}

// workload is one distinct submission the burst cycles through.
type workload struct {
	body  []byte
	graph *ctg.Graph

	mu       sync.Mutex
	digest   string
	schedule []byte // cold-phase schedule bytes, the bit-identity reference
	warm     []byte // first warm-burst schedule for this workload
	diverged bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schedload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseURL     = fs.String("url", "http://127.0.0.1:9821", "schedd base URL")
		meshSpec    = fs.String("mesh", "4x4", "mesh size, WIDTHxHEIGHT")
		tasks       = fs.Int("tasks", 60, "tasks per workload graph")
		nWorkloads  = fs.Int("workloads", 8, "distinct workloads the burst cycles through")
		nRequests   = fs.Int("requests", 200, "warm-burst request count")
		concurrency = fs.Int("concurrency", 8, "concurrent warm-burst clients")
		schedSpec   = fs.String("scheds", "eas,edf,dls", "comma-separated algorithms the workloads cycle through")
		seed        = fs.Int64("seed", 1, "base RNG seed for graph generation")
		wait        = fs.Duration("wait", 30*time.Second, "how long to wait for /readyz")
		out         = fs.String("o", "", "write the JSON report to this file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, h, err := noc.ParseMesh(*meshSpec)
	if err != nil {
		return fmt.Errorf("-mesh: %w", err)
	}
	scheds := strings.Split(*schedSpec, ",")
	for _, s := range scheds {
		switch s {
		case serve.AlgoEAS, serve.AlgoEASBase, serve.AlgoEDF, serve.AlgoDLS:
		default:
			return fmt.Errorf("bad -scheds entry %q", s)
		}
	}
	if *nWorkloads < 1 || *nRequests < 1 || *concurrency < 1 {
		return errors.New("-workloads, -requests and -concurrency must be >= 1")
	}

	spec := noc.PlatformSpec{Topology: "mesh", Width: w, Height: h, Routing: "xy", Bandwidth: 256}
	platform, err := spec.Build()
	if err != nil {
		return err
	}
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	if err != nil {
		return err
	}
	workloads := make([]*workload, *nWorkloads)
	for i := range workloads {
		p := tgff.SuiteParams(tgff.CategoryI, i%tgff.SuiteSize, platform)
		p.Name = fmt.Sprintf("schedload-%d", i)
		p.Seed = *seed + int64(i)
		p.NumTasks = *tasks
		g, err := tgff.Generate(p)
		if err != nil {
			return err
		}
		body, err := json.Marshal(serve.Request{Graph: g, Platform: &spec, Algorithm: scheds[i%len(scheds)]})
		if err != nil {
			return err
		}
		workloads[i] = &workload{body: body, graph: g}
	}

	client := &http.Client{Timeout: 60 * time.Second}
	if err := awaitReady(client, *baseURL, *wait); err != nil {
		return err
	}

	c := cell{
		Mesh:      *meshSpec,
		Tasks:     *tasks,
		Requests:  2**nWorkloads + *nRequests,
		Workloads: *nWorkloads,
	}

	// Cold phase: solve each workload once, sequentially, recording the
	// bit-identity reference for the burst.
	fmt.Fprintf(stderr, "schedload: cold phase: %d workloads...\n", *nWorkloads)
	var coldMS []float64
	for _, wl := range workloads {
		r, latency, retries, err := submit(client, *baseURL, wl.body)
		c.Status429 += retries
		if err != nil {
			c.Status5xx++
			return fmt.Errorf("cold solve: %w", err)
		}
		c.Status2xx++
		coldMS = append(coldMS, latency)
		wl.digest = r.Digest
		wl.schedule = r.Schedule
		if r.Cache == serve.CacheMiss {
			c.Solves++
		}
	}

	// Warm latency pass: replay each workload once, sequentially, so
	// warm_ms is measured under the same (unloaded) conditions as
	// cold_ms and warm_speedup isolates the cache's benefit rather
	// than burst-phase queueing.
	fmt.Fprintf(stderr, "schedload: warm latency pass: %d workloads...\n", *nWorkloads)
	var warmSeqMS []float64
	for _, wl := range workloads {
		r, latency, retries, err := submit(client, *baseURL, wl.body)
		c.Status429 += retries
		if err != nil {
			c.Status5xx++
			return fmt.Errorf("warm pass: %w", err)
		}
		c.Status2xx++
		warmSeqMS = append(warmSeqMS, latency)
		if r.Cache == serve.CacheMiss {
			c.Solves++
		}
		wl.mu.Lock()
		if r.Digest != wl.digest || !bytes.Equal(r.Schedule, wl.schedule) {
			wl.diverged = true
		}
		if wl.warm == nil {
			wl.warm = r.Schedule
		}
		wl.mu.Unlock()
	}

	// Warm burst: request i replays workload i%W concurrently; the
	// daemon should answer from its cache.
	fmt.Fprintf(stderr, "schedload: warm burst: %d requests at concurrency %d...\n", *nRequests, *concurrency)
	var (
		mu       sync.Mutex
		warmMS   []float64
		burstErr error
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	burstStart := time.Now()
	for g := 0; g < *concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				wl := workloads[i%len(workloads)]
				r, latency, retries, err := submit(client, *baseURL, wl.body)
				mu.Lock()
				c.Status429 += retries
				if err != nil {
					c.Status5xx++
					if burstErr == nil {
						burstErr = err
					}
					mu.Unlock()
					continue
				}
				c.Status2xx++
				warmMS = append(warmMS, latency)
				if r.Cache == serve.CacheMiss {
					c.Solves++
				}
				mu.Unlock()
				wl.mu.Lock()
				if r.Digest != wl.digest || !bytes.Equal(r.Schedule, wl.schedule) {
					wl.diverged = true
				}
				if wl.warm == nil {
					wl.warm = r.Schedule
				}
				wl.mu.Unlock()
			}
		}()
	}
	for i := 0; i < *nRequests; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	burstWall := time.Since(burstStart)
	if burstErr != nil {
		return fmt.Errorf("warm burst: %w", burstErr)
	}

	// Gates: every burst response matched its cold reference byte for
	// byte, and every cold schedule re-loads bit-identically (sched.Diff)
	// and passes the conformance oracle.
	c.Identical = true
	c.Verified = true
	for _, wl := range workloads {
		if wl.diverged {
			c.Identical = false
			continue
		}
		s1, err := sched.ReadJSON(bytes.NewReader(wl.schedule), wl.graph, acg)
		if err != nil {
			return fmt.Errorf("re-load %s: %w", wl.digest, err)
		}
		if wl.warm != nil {
			s2, err := sched.ReadJSON(bytes.NewReader(wl.warm), wl.graph, acg)
			if err != nil {
				return fmt.Errorf("re-load warm %s: %w", wl.digest, err)
			}
			if sched.Diff(s1, s2) != "" {
				c.Identical = false
			}
		}
		if rep := verify.Check(s1); len(rep.Structural()) > 0 {
			c.Verified = false
		}
	}
	if !c.Identical {
		return errors.New("burst responses diverged from their cold references; refusing to write a report")
	}
	if !c.Verified {
		return errors.New("a served schedule failed verification; refusing to write a report")
	}

	c.HitRatio = 1 - float64(c.Solves)/float64(c.Status2xx)
	c.ThroughputRPS = float64(len(warmMS)) / burstWall.Seconds()
	c.P50MS = quantile(warmMS, 0.50)
	c.P99MS = quantile(warmMS, 0.99)
	c.ColdMS = mean(coldMS)
	c.WarmMS = mean(warmSeqMS)
	if c.WarmMS > 0 {
		c.WarmSpeedup = c.ColdMS / c.WarmMS
	}

	rep := report{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        *seed,
		Concurrency: *concurrency,
		Scheds:      *schedSpec,
		Cells:       []cell{c},
	}
	var sink io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}
	enc := json.NewEncoder(sink)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// awaitReady polls /readyz until the daemon reports ready.
func awaitReady(client *http.Client, baseURL string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(baseURL + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon not ready after %v: %w", wait, err)
			}
			return fmt.Errorf("daemon not ready after %v", wait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// submit posts one request, retrying 429s with backoff. It returns the
// decoded response, the final attempt's latency in ms, and how many
// retries backpressure cost.
func submit(client *http.Client, baseURL string, body []byte) (*serve.Response, float64, int, error) {
	backoff := 5 * time.Millisecond
	for retries := 0; ; retries++ {
		start := time.Now()
		resp, err := client.Post(baseURL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, 0, retries, err
		}
		raw, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return nil, 0, retries, err
		}
		latency := float64(time.Since(start).Microseconds()) / 1e3
		switch {
		case resp.StatusCode == http.StatusOK:
			var r serve.Response
			if err := json.Unmarshal(raw, &r); err != nil {
				return nil, 0, retries, fmt.Errorf("decode response: %w", err)
			}
			return &r, latency, retries, nil
		case resp.StatusCode == http.StatusTooManyRequests && retries < 50:
			time.Sleep(backoff)
			if backoff < 200*time.Millisecond {
				backoff *= 2
			}
		default:
			return nil, 0, retries, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile is the nearest-rank quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
