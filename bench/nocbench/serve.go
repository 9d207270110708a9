package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/noc"
	"nocsched/internal/sched"
	"nocsched/internal/serve"
	"nocsched/internal/verify"
)

// workers is the batch engine's and schedd's worker count, and the
// most connections a serve workload opens: the benchmark machine has
// two cores.
const workers = 2

const (
	// serveSetups is how many times a serve run starts schedd; setup_s
	// is the median, and the last daemon carries the load.
	serveSetups = 5
	readyWait   = 30 * time.Second
	stopWait    = 30 * time.Second
	// replayCalls is about how many times each serve stage is replayed.
	replayCalls = 64
)

// daemon is one running scheduling service a serve workload drives.
type daemon interface {
	url() string
	pid() int
	// stop drains the daemon; an error means it did not exit cleanly.
	// Calling stop again is a no-op.
	stop() error
}

// launcher starts a daemon with the given schedule-cache bound (0: the
// daemon's default) and returns once it reports ready.
type launcher func(cacheEntries int) (daemon, error)

// scheddLauncher runs the schedd binary at bin.
func scheddLauncher(bin string) launcher {
	return func(cacheEntries int) (daemon, error) {
		args := []string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers)}
		if cacheEntries > 0 {
			args = append(args, "-cache-entries", strconv.Itoa(cacheEntries))
		}
		log := &scheddLog{ready: make(chan string, 1)}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = log
		// A daemon must not outlive a benchmark that is killed mid-run.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start schedd: %w", err)
		}
		p := &scheddProc{cmd: cmd, log: log, done: make(chan error, 1)}
		go func() { p.done <- cmd.Wait() }()
		select {
		case p.base = <-log.ready:
			return p, nil
		case err := <-p.done:
			return nil, fmt.Errorf("schedd exited before ready (%v): %s", err, log)
		case <-time.After(readyWait):
			_ = cmd.Process.Kill()
			<-p.done
			return nil, fmt.Errorf("schedd not ready after %v: %s", readyWait, log)
		}
	}
}

type scheddProc struct {
	cmd     *exec.Cmd
	base    string
	log     *scheddLog
	done    chan error
	stopped bool
	err     error
}

func (p *scheddProc) url() string { return p.base }
func (p *scheddProc) pid() int    { return p.cmd.Process.Pid }

// stop sends SIGTERM and waits: schedd drains, audits itself for leaked
// goroutines and exits 0 only when both went cleanly.
func (p *scheddProc) stop() error {
	if p.stopped {
		return p.err
	}
	p.stopped = true
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.err = fmt.Errorf("signal schedd: %w", err)
		_ = p.cmd.Process.Kill()
		<-p.done
		return p.err
	}
	select {
	case err := <-p.done:
		if err != nil {
			p.err = fmt.Errorf("schedd did not drain cleanly after SIGTERM (%v): %s", err, p.log)
		}
	case <-time.After(stopWait):
		_ = p.cmd.Process.Kill()
		<-p.done
		p.err = fmt.Errorf("schedd still running %v after SIGTERM: %s", stopWait, p.log)
	}
	return p.err
}

// scheddLog collects schedd's stderr and announces the URL from its
// "schedd: ready on URL" line.
type scheddLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string
	sent  bool
}

func (l *scheddLog) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(b)
	if !l.sent {
		if _, rest, ok := strings.Cut(l.buf.String(), "schedd: ready on "); ok {
			if url, _, ok := strings.Cut(rest, "\n"); ok {
				l.sent = true
				l.ready <- url
			}
		}
	}
	return len(b), nil
}

func (l *scheddLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.TrimSpace(l.buf.String())
}

// serveInputs are a serve workload's distinct graphs, their request
// bodies, and the order the load requests them in.
type serveInputs struct {
	graphs []*ctg.Graph
	bodies [][]byte
	// order[i] is the graph the i-th request asks for.
	order []int
}

func newServeInputs(w workload, p *platform, seed int64, maxRequests int) (*serveInputs, error) {
	in := &serveInputs{graphs: make([]*ctg.Graph, w.graphs), bodies: make([][]byte, w.graphs)}
	for i := range in.graphs {
		g, err := w.graph(p, seed, i)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.Request{Graph: g, Platform: &p.spec, Algorithm: w.algorithm(i)})
		if err != nil {
			return nil, err
		}
		in.graphs[i], in.bodies[i] = g, body
	}
	in.order = make([]int, maxRequests)
	if w.zipf > 0 {
		// Popularity ranks map to graphs through a seeded permutation, so
		// the hot set mixes algorithms and suite shapes.
		r := rand.New(rand.NewSource(seed))
		perm := r.Perm(w.graphs)
		z := rand.NewZipf(r, w.zipf, 1, uint64(w.graphs-1))
		for i := range in.order {
			in.order[i] = perm[z.Uint64()]
		}
	} else {
		for i := range in.order {
			in.order[i] = i % w.graphs
		}
	}
	return in, nil
}

// castagnoli checksums response bodies; it only has to notice that two
// bodies differ, and it is fast enough to run inside the load loop.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// contentSum checksums a 200 body without the values of its two
// per-response fields: the cache disposition, and solve_us, which a
// re-solve after an eviction legitimately changes. Everything else —
// digest, schedule bytes, energy — must repeat exactly.
func contentSum(body []byte) uint32 {
	h := crc32.New(castagnoli)
	rest := body
	for _, key := range []string{`"cache": `, `"solve_us": `} {
		i := bytes.Index(rest, []byte(key))
		if i < 0 {
			break
		}
		h.Write(rest[:i+len(key)])
		rest = rest[i+len(key):]
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			rest = rest[j:]
		} else {
			rest = nil
		}
	}
	h.Write(rest)
	return h.Sum32()
}

// responses keeps each graph's first 200 body for the post-run checks
// and notes any later body whose content differs from it.
type responses struct {
	mu       sync.Mutex
	first    [][]byte
	sum      []uint32
	diverged []string
}

func (r *responses) record(g int, cache string, body []byte) {
	sum := contentSum(body)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.first[g] == nil:
		r.first[g], r.sum[g] = body, sum
	case r.sum[g] != sum && len(r.diverged) < 8:
		r.diverged = append(r.diverged, fmt.Sprintf("graph %d: a %q response differs from the first response", g, cache))
	}
}

// loadgen drives one daemon with conns closed-loop connections: each
// sends its next request only when the previous reply has arrived.
type loadgen struct {
	client *http.Client
	base   string
	conns  int
	in     *serveInputs
	seen   *responses
	clock  *traceClock
}

// run sends requests order[from:to] over the connections, stopping at
// the deadline when one is given, and adds what it measured to sl. It
// returns the index of the next unsent request. A transport error
// aborts the run; a non-200 status counts as failed.
func (l *loadgen) run(sl *slice, from, to int, deadline time.Time) (int, error) {
	var next atomic.Int64
	next.Store(int64(from))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, l.conns)
	start := time.Now()
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			track := fmt.Sprintf("nocbench conn %d", c)
			var lat []float64
			ok, failed := 0, 0
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					break
				}
				i := int(next.Add(1) - 1)
				if i >= to {
					break
				}
				g := l.in.order[i]
				t0 := time.Now()
				status, cache, body, err := l.post(g)
				t1 := time.Now()
				if err != nil {
					errs[c] = err
					break
				}
				if l.clock != nil {
					l.clock.span(fmt.Sprintf("req %d g%d %s", i, g, cache), track, t0, t1)
				}
				if status != http.StatusOK {
					failed++
					continue
				}
				ok++
				lat = append(lat, float64(t1.Sub(t0).Nanoseconds())/1e6)
				l.seen.record(g, cache, body)
			}
			mu.Lock()
			sl.lat = append(sl.lat, lat...)
			sl.ok += ok
			sl.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	sl.wall += time.Since(start)
	return min(int(next.Load()), to), errors.Join(errs...)
}

func (l *loadgen) post(g int) (status int, cache string, body []byte, err error) {
	resp, err := l.client.Post(l.base+"/v1/schedule", "application/json", bytes.NewReader(l.in.bodies[g]))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Nocsched-Cache"), body, err
}

// timed runs one timed phase from request *next on, in calibrated
// slices, and measures the daemon's CPU over each slice.
func (l *loadgen) timed(d daemon, next *int, dur time.Duration) (*phase, error) {
	ph, err := sliced(dur, func(dur time.Duration) (*slice, error) {
		cpu0, err := procCPUSeconds(d.pid())
		if err != nil {
			return nil, err
		}
		sl := &slice{}
		if *next, err = l.run(sl, *next, len(l.in.order), time.Now().Add(dur)); err != nil {
			return nil, err
		}
		cpu1, err := procCPUSeconds(d.pid())
		sl.cpu = cpu1 - cpu0
		return sl, err
	}, nil)
	if err != nil {
		return nil, err
	}
	if *next >= len(l.in.order) {
		return nil, fmt.Errorf("request order exhausted after %d requests", *next)
	}
	return ph, nil
}

// scrape reads the daemon's unlabelled /metrics samples.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics sample %q: %w", line, err)
		}
		m[name] = v
	}
	return m, sc.Err()
}

func getOK(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

func runServe(ctx context.Context, cfg config, w workload) (*result, error) {
	p, err := newPlatform()
	if err != nil {
		return nil, err
	}
	// Room for the warm-up plus both phases at far above the measured
	// request rates; running out is reported, never wrapped around.
	maxRequests := w.graphs + w.warmup + int(cfg.seconds*20000) + 1000
	in, err := newServeInputs(w, p, cfg.seed, maxRequests)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	defer tr.CloseIdleConnections()

	res := newResult()
	var d daemon
	defer func() {
		if d != nil {
			_ = d.stop()
		}
	}()
	// Set-up is from starting the daemon to its first 200 on /readyz,
	// which it answers only after a warm-up solve. Every daemon but the
	// last must also drain cleanly on SIGTERM.
	var setups []float64
	speed, err := calibrated(func() error {
		for i := 0; i < serveSetups; i++ {
			start := time.Now()
			var err error
			if d, err = cfg.launch(w.cacheEntries); err != nil {
				return err
			}
			if err := getOK(client, d.url()+"/readyz"); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			if i < serveSetups-1 {
				tr.CloseIdleConnections()
				if err := d.stop(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.setup(setups, speed)

	sink := &memSink{}
	seen := &responses{first: make([][]byte, w.graphs), sum: make([]uint32, w.graphs)}
	l := &loadgen{client: client, base: d.url(), conns: w.conns, in: in, seen: seen}

	// Untimed: every distinct graph once (serve-hit then times only
	// cache hits), then the workload's warm-up requests.
	var next int
	if w.zipf == 0 {
		if next, err = l.warm(res, 0, w.graphs); err != nil {
			return nil, err
		}
	}
	if next, err = l.warm(res, next, next+w.warmup); err != nil {
		return nil, err
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	untraced, err := l.timed(d, &next, dur)
	if err != nil {
		return nil, err
	}
	res.count(untraced)
	var traced *phase
	var before, after map[string]float64
	if cfg.trace {
		l.clock = newTraceClock(sink)
		if before, err = scrape(client, d.url()); err != nil {
			return nil, err
		}
		if traced, err = l.timed(d, &next, dur); err != nil {
			return nil, err
		}
		if after, err = scrape(client, d.url()); err != nil {
			return nil, err
		}
		res.count(traced)
	}
	rss, err := peakRSSMiB(d.pid())
	if err != nil {
		return nil, err
	}
	tr.CloseIdleConnections()
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	// Correctness, after timing: every graph's content repeated exactly,
	// and every served schedule re-loads, passes the oracle and equals
	// an independent serial solve.
	if len(seen.diverged) > 0 {
		return nil, fmt.Errorf("responses diverged: %s", strings.Join(seen.diverged, "; "))
	}
	refs := make([]*sched.Schedule, w.graphs)
	q := &quality{}
	for i, g := range in.graphs {
		if refs[i], err = reference(g, p.acg, w.algorithm(i)); err != nil {
			return nil, fmt.Errorf("reference solve of graph %d: %w", i, err)
		}
		q.add(refs[i])
	}
	for i, body := range seen.first {
		if body == nil {
			continue
		}
		if err := checkServed(body, in.graphs[i], w.algorithm(i), p, refs[i]); err != nil {
			return nil, fmt.Errorf("graph %d: %w", i, err)
		}
	}
	if res.digest, err = scheduleDigest(refs); err != nil {
		return nil, err
	}

	res.timings(untraced, w.tail)
	res.e2e["mem_mb"] = rss
	res.quality(q)
	if !cfg.trace {
		return res, nil
	}

	// Layers: exact counter deltas over the traced phase, then each
	// serve stage replayed on the workload's own bodies.
	delta := func(name string) float64 { return after[name] - before[name] }
	reqs := delta(serve.MetricRequests)
	perKop := func(names ...string) float64 {
		s := 0.0
		for _, n := range names {
			s += delta(n)
		}
		return 1000 * ratio(s, reqs)
	}
	handler := ratio(delta(serve.MetricLatency+"_sum"), delta(serve.MetricLatency+"_count")) / 1000
	solve := ratio(delta("batch_instance_latency_us_sum"), delta("batch_instance_latency_us_count")) / 1000
	missShare := ratio(delta(serve.MetricSolves), reqs)
	res.layers["serve.handler_ms_mean"] = handler
	res.layers["serve.cache_hit_ratio"] = ratio(delta(serve.MetricCacheHits), reqs)
	res.layers["serve.evictions_per_kop"] = perKop(serve.MetricCacheEvictions)
	res.layers["serve.solves_per_kop"] = perKop(serve.MetricSolves)
	res.layers["batch.solve_ms_mean"] = solve
	res.layers["sched.probes_per_op"] = ratio(delta(sched.MetricProbes), reqs)
	res.layers["runtime.gc_cycles_per_kop"] = perKop("runtime_gc_cycles_total")
	res.layers["serve.transport_ms_mean"] = mean(traced.total().lat) - handler
	res.layers["trace.overhead_ratio"] = untraced.throughput()/traced.throughput() - 1
	res.samples["serve.handler_ms_mean"] = int(delta(serve.MetricLatency + "_count"))

	st, err := replayStages(l.clock, in.bodies, seen.first, refs, p.spec)
	if err != nil {
		return nil, err
	}
	for name, us := range st.us {
		res.layers[name] = us
		res.samples[name] = st.calls
	}
	modelled := (st.us["serve.decode_us"] + st.us["serve.digest_us"] + st.us["serve.encode_us"]) / 1000
	modelled += missShare * (solve + (st.us["serve.render_us"]+st.us["verify.check_us"])/1000)
	res.layers["serve.unattributed_ms"] = handler - modelled
	res.events, res.dropped = sink.take()
	return res, nil
}

// warm sends requests order[from:to] untimed.
func (l *loadgen) warm(res *result, from, to int) (int, error) {
	if to <= from {
		return from, nil
	}
	sl := &slice{}
	next, err := l.run(sl, from, to, time.Time{})
	res.count(&phase{slices: []*slice{sl}})
	return next, err
}

// checkServed re-derives one served response: its digest, and its
// schedule, which must load, pass the oracle and equal the reference.
func checkServed(body []byte, g *ctg.Graph, algorithm string, p *platform, ref *sched.Schedule) error {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	digest, err := serve.WorkloadDigest(algorithm, p.spec, g)
	if err != nil {
		return err
	}
	if resp.Digest != digest {
		return fmt.Errorf("served digest %s, want %s", resp.Digest, digest)
	}
	s, err := sched.ReadJSON(bytes.NewReader(resp.Schedule), g, p.acg)
	if err != nil {
		return fmt.Errorf("re-load served schedule: %w", err)
	}
	if err := structural(s); err != nil {
		return err
	}
	if diff := sched.Diff(s, ref); diff != "" {
		return fmt.Errorf("served schedule differs from the reference solve: %s", diff)
	}
	return nil
}

// structural fails on any oracle finding other than a deadline miss,
// which is a legitimate, reported outcome.
func structural(s *sched.Schedule) error {
	rep := verify.Check(s)
	for _, f := range rep.Findings {
		if f.Class != verify.ClassDeadline {
			return fmt.Errorf("schedule %s fails verification: %s", s.Graph.Name, f.String())
		}
	}
	return nil
}

// stages are the serve handler's steps the replay times, by metric name.
type stages struct {
	us    map[string]float64 // mean µs per call
	calls int
}

// replayStages times each public function the serve path calls, on the
// served graphs' own request bodies, responses and schedules: decode
// (including graph validation), digest, encode of a response carrying
// the cached schedule bytes, render (WriteJSON) and the oracle check.
func replayStages(clock *traceClock, bodies, first [][]byte, refs []*sched.Schedule, spec noc.PlatformSpec) (*stages, error) {
	var set []int
	for i, b := range first {
		if b != nil && len(set) < replayCalls {
			set = append(set, i)
		}
	}
	if len(set) == 0 {
		return nil, errors.New("no served response to replay")
	}
	reps := max(1, replayCalls/len(set))
	total := make(map[string]time.Duration)
	var buf bytes.Buffer
	timeStage := func(name string, g int, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		total[name] += t1.Sub(t0)
		clock.span(fmt.Sprintf("%s g%d", name, g), "nocbench replay", t0, t1)
		return err
	}
	for r := 0; r < reps; r++ {
		for _, g := range set {
			var cached serve.Response
			if err := json.Unmarshal(first[g], &cached); err != nil {
				return nil, err
			}
			var req serve.Request
			steps := []struct {
				name string
				f    func() error
			}{
				{"serve.decode_us", func() error {
					req = serve.Request{}
					return json.NewDecoder(bytes.NewReader(bodies[g])).Decode(&req)
				}},
				{"serve.digest_us", func() error {
					_, err := serve.WorkloadDigest(cached.Algorithm, spec, req.Graph)
					return err
				}},
				{"serve.encode_us", func() error {
					buf.Reset()
					enc := json.NewEncoder(&buf)
					enc.SetIndent("", "  ")
					return enc.Encode(cached)
				}},
				{"serve.render_us", func() error {
					buf.Reset()
					return refs[g].WriteJSON(&buf)
				}},
				{"verify.check_us", func() error {
					verify.Check(refs[g])
					return nil
				}},
			}
			for _, s := range steps {
				if err := timeStage(s.name, g, s.f); err != nil {
					return nil, fmt.Errorf("replay %s on graph %d: %w", s.name, g, err)
				}
			}
		}
	}
	calls := reps * len(set)
	st := &stages{us: make(map[string]float64), calls: calls}
	for name, d := range total {
		st.us[name] = float64(d.Nanoseconds()) / 1e3 / float64(calls)
	}
	return st, nil
}
