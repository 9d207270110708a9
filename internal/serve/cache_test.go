package serve

import (
	"fmt"
	"testing"

	"nocsched/internal/energy"
	"nocsched/internal/telemetry"
)

func testEntry(digest string, size int64) *cacheEntry {
	return &cacheEntry{digest: digest, size: size}
}

// TestCacheEntryBound evicts strictly LRU once the entry bound is hit.
func TestCacheEntryBound(t *testing.T) {
	r := telemetry.NewRegistry()
	c := newSchedCache(3, 1<<30, r)
	for i := 0; i < 4; i++ {
		c.put(testEntry(fmt.Sprintf("d%d", i), 100))
	}
	if c.ll.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.ll.Len())
	}
	if c.get("d0") != nil {
		t.Error("oldest entry d0 survived the entry bound")
	}
	for _, d := range []string{"d1", "d2", "d3"} {
		if c.get(d) == nil {
			t.Errorf("entry %s evicted out of LRU order", d)
		}
	}
	if got := counterValue(t, r, MetricCacheEvictions); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestCacheByteBound evicts under byte pressure even with entry
// headroom, and recency protects the hot entry.
func TestCacheByteBound(t *testing.T) {
	r := telemetry.NewRegistry()
	c := newSchedCache(1024, 1000, r)
	c.put(testEntry("a", 400))
	c.put(testEntry("b", 400))
	// Touch a so b is the LRU victim.
	if c.get("a") == nil {
		t.Fatal("a missing")
	}
	c.put(testEntry("c", 400)) // 1200 > 1000: one eviction needed
	if c.get("b") != nil {
		t.Error("byte pressure should have evicted LRU entry b")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Error("recently-used a or fresh c evicted instead of b")
	}
	if c.bytes != 800 {
		t.Errorf("accounted bytes = %d, want 800", c.bytes)
	}
}

// TestCacheOversizeEntrySurvivesAlone: a single entry larger than the
// byte bound is kept (serving it beats thrashing) and ages out once a
// successor lands.
func TestCacheOversizeEntrySurvivesAlone(t *testing.T) {
	c := newSchedCache(1024, 500, telemetry.NewRegistry())
	c.put(testEntry("big", 900))
	if c.get("big") == nil {
		t.Fatal("oversize sole entry evicted immediately")
	}
	c.put(testEntry("small", 100))
	if c.get("big") != nil {
		t.Error("oversize entry survived past its successor")
	}
	if c.get("small") == nil {
		t.Error("successor evicted with the oversize entry")
	}
}

// TestCacheReplaceSameDigest re-putting a digest replaces, not
// duplicates.
func TestCacheReplaceSameDigest(t *testing.T) {
	c := newSchedCache(8, 1<<20, telemetry.NewRegistry())
	c.put(testEntry("d", 100))
	c.put(testEntry("d", 200))
	if c.ll.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.ll.Len())
	}
	if c.bytes != 200 {
		t.Errorf("bytes = %d, want 200 (replacement, not accumulation)", c.bytes)
	}
}

// TestCacheHitMissCounters pin the telemetry counters' semantics.
func TestCacheHitMissCounters(t *testing.T) {
	r := telemetry.NewRegistry()
	c := newSchedCache(8, 1<<20, r)
	c.get("absent")
	c.put(testEntry("d", 10))
	c.get("d")
	c.get("d")
	if got := counterValue(t, r, MetricCacheHits); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := counterValue(t, r, MetricCacheMisses); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// TestACGCacheEviction: the ACG cache is LRU-bounded. Distinct
// zero-value ACGs stand in for real ones — the cache never
// dereferences them.
func TestACGCacheEviction(t *testing.T) {
	c := newLRU[string, *energy.ACG](2)
	acgs := []*energy.ACG{new(energy.ACG), new(energy.ACG), new(energy.ACG)}
	c.put("p0", acgs[0])
	c.put("p1", acgs[1])
	if c.get("p0") == nil {
		t.Fatal("p0 missing")
	}
	c.put("p2", acgs[2]) // p1 is now LRU
	if c.get("p1") != nil {
		t.Error("p1 survived past the bound")
	}
	if c.get("p0") != acgs[0] || c.get("p2") != acgs[2] {
		t.Error("survivors lost their ACGs")
	}
}

func counterValue(t *testing.T, r *telemetry.Registry, name string) int64 {
	t.Helper()
	for _, c := range r.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
