package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nocsched/internal/telemetry"
)

// rank is the 1-based nearest rank of the perMille quantile of n
// samples, ceil(perMille*n/1000), in integer arithmetic so that no
// rounding moves it.
func rank(perMille, n int) int { return (perMille*n + 999) / 1000 }

// quantile is the nearest-rank quantile (perMille/1000) of an ascending
// sample: the smallest sample with at least rank(perMille, n) samples
// at or below it. It never interpolates, so every reported quantile is
// a value that was actually measured.
func quantile(sorted []float64, perMille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(perMille, len(sorted)), 1), len(sorted))-1]
}

// tailPerMille are the candidate tail quantiles, highest first.
var tailPerMille = []int{999, 990, 950, 900, 750}

// minBeyond is how many samples must lie above a quantile's rank for
// that quantile to be reported as the tail.
const minBeyond = 10

// tail returns the highest candidate quantile at or below perMille
// that has at least minBeyond samples beyond its nearest rank, as a
// percentile, and its value; the median when none has. Each workload
// fixes perMille as the highest candidate its usual sample count
// supports, so that every run reports the same percentile.
func tail(sorted []float64, perMille int) (pct, value float64) {
	for _, pm := range tailPerMille {
		if pm <= perMille && len(sorted)-rank(pm, len(sorted)) >= minBeyond {
			return float64(pm) / 10, quantile(sorted, pm)
		}
	}
	return 50, quantile(sorted, 500)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 500)
}

// ratio divides, reading 0/0 as 0 so that a layer a workload never
// reaches reports zero instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procCPUSeconds returns the user+system CPU time a process has used,
// from /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, at field 3.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMiB returns a process's resident-set high-water mark (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// refRate is the calibration rate (units/s on two goroutines) that
// reported timings are scaled to: roughly the median rate of the
// 2-core Xeon VM the benchmark was sized on, so scaled values read
// close to raw ones there.
const refRate = 4400

// calibrationTime is how long each calibration sample runs.
const calibrationTime = 300 * time.Millisecond

// calibrationUnit is one unit of the calibration workload: a fixed mix
// of standard-library CPU work (sorting, a JSON round trip, map updates,
// hashing) that no change to the repository can speed up or slow down.
func calibrationUnit(seed int64) {
	r := rand.New(rand.NewSource(seed))
	xs := make([]int, 4000)
	for i := range xs {
		xs[i] = r.Int()
	}
	slices.Sort(xs)
	type rec struct {
		ID   int       `json:"id"`
		Name string    `json:"name"`
		Vals []float64 `json:"vals"`
	}
	recs := make([]rec, 40)
	for i := range recs {
		recs[i] = rec{ID: i, Name: strconv.Itoa(xs[i]), Vals: []float64{r.Float64(), r.Float64()}}
	}
	raw, _ := json.Marshal(recs) // cannot fail: plain structs
	var back []rec
	_ = json.Unmarshal(raw, &back) // cannot fail: raw was just marshaled
	m := make(map[int]int)
	for i, x := range xs {
		m[x%1000] += i
	}
	sha256.Sum256(raw)
}

// calibrate measures the machine's current speed: calibration units per
// second on as many goroutines as the load uses.
func calibrate() float64 {
	var units atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(calibrationTime)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); time.Now().Before(deadline); i++ {
				calibrationUnit(i)
				units.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(units.Load()) / time.Since(start).Seconds()
}

// calibrated runs f between two calibrations and returns the machine's
// speed around it relative to refRate.
func calibrated(f func() error) (speed float64, err error) {
	before := calibrate()
	if err := f(); err != nil {
		return 0, err
	}
	return (before + calibrate()) / 2 / refRate, nil
}

// slicesPerPhase is how many slices a timed phase is cut into; the
// machine is calibrated before the first slice and after every slice.
const slicesPerPhase = 10

// sliced runs a timed phase of length dur as slicesPerPhase slices and
// keeps adding slices while more reports that the phase still lacks
// instances. run measures one slice. Each slice's speed is the mean of
// the calibrations on either side of it: on a co-tenanted VM the speed
// of a CPU second drifts by more than 10 % within minutes, and scaling
// each slice by it keeps timings comparable across runs.
func sliced(dur time.Duration, run func(time.Duration) (*slice, error), more func() bool) (*phase, error) {
	ph := &phase{}
	before := calibrate()
	for i := 0; i < slicesPerPhase || (more != nil && more()); i++ {
		s, err := run(dur / slicesPerPhase)
		if err != nil {
			return nil, err
		}
		after := calibrate()
		s.speed = (before + after) / 2 / refRate
		before = after
		ph.slices = append(ph.slices, s)
	}
	return ph, nil
}

// liveHeap samples the live heap (bytes the last GC marked reachable)
// every 10 ms until stopped. Its peak follows the rare stalls that pile
// results up in the engine's reorder buffer; its median is the steady
// footprint of the engine and the instances in flight.
type liveHeap struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startLiveHeap() *liveHeap {
	h := &liveHeap{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// medianMiB stops sampling and returns the median sample in MiB.
func (h *liveHeap) medianMiB() float64 {
	close(h.stop)
	<-h.done
	return median(h.samples) / (1 << 20)
}

// maxEvents bounds the in-memory trace; later events are counted, not
// kept, so a long traced run cannot exhaust memory.
const maxEvents = 500_000

// memSink keeps tracer events in memory until the run ends; the
// benchmark writes them out only after measuring. Safe for concurrent
// use, unlike the file sinks, because batch workers emit concurrently.
type memSink struct {
	mu      sync.Mutex
	events  []telemetry.Event
	dropped int
}

func (s *memSink) Emit(e *telemetry.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) >= maxEvents {
		s.dropped++
		return
	}
	s.events = append(s.events, *e)
}

func (s *memSink) Err() error   { return nil }
func (s *memSink) Close() error { return nil }

// take returns the events recorded so far and how many were dropped.
func (s *memSink) take() ([]telemetry.Event, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.events), s.dropped
}

// spanTotals sums the durations (µs) and counts the spans on one track,
// by span name.
func spanTotals(events []telemetry.Event, track string) (us map[string]int64, n map[string]int) {
	us, n = make(map[string]int64), make(map[string]int)
	for i := range events {
		if e := &events[i]; e.Track == track && e.Kind == 'X' {
			us[e.Name] += e.Dur
			n[e.Name]++
		}
	}
	return us, n
}

// lanes assigns overlapping spans to numbered tracks so that no two
// spans on one track overlap, which Chrome trace viewers require for
// complete events. Spans must be offered in ascending start order.
type lanes struct{ ends []int64 }

func (l *lanes) place(start, end int64) int {
	for i, e := range l.ends {
		if e <= start {
			l.ends[i] = end
			return i
		}
	}
	l.ends = append(l.ends, end)
	return len(l.ends) - 1
}

// writeTrace writes the run's events as a Chrome trace and its layer
// metrics as layers.json into dir, then re-reads the trace through
// telemetry.ValidateChromeTrace.
func writeTrace(dir string, events []telemetry.Event, layers any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cs := telemetry.NewChromeSink(f)
	for i := range events {
		cs.Emit(&events[i])
	}
	if err := cs.Close(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	if _, err := telemetry.ValidateChromeTrace(rf); err != nil {
		return fmt.Errorf("validate %s: %w", path, err)
	}
	raw, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(raw, '\n'), 0o644)
}
