package serve

import (
	"container/list"
	"crypto/sha256"

	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/telemetry"
)

// cacheEntry is one immutable cached solve: the schedule itself (for
// spot checks and sched.Diff-based tests) plus the rendered 200 body,
// split around the value of its "cache" field so each response stamps
// its own provenance between head and tail. A hit therefore serializes
// nothing, and two responses for one digest are bit-identical in every
// byte the cache owns. Entries are never mutated after insertion.
type cacheEntry struct {
	digest     string
	head, tail []byte
	schedule   *sched.Schedule
	size       int64
}

// entryOverhead is the accounted fixed cost of one entry beyond its
// rendered response bytes (digest string, struct, list bookkeeping) —
// an estimate, but a stable one, so the byte bound is deterministic.
const entryOverhead = 512

// schedCache is the content-addressed schedule cache: digest →
// cacheEntry under LRU eviction with both an entry-count and a byte
// bound. Not safe for concurrent use — the Server's mutex guards it.
type schedCache struct {
	maxEntries int
	maxBytes   int64

	ll    *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element
	bytes int64

	hits, misses, evictions *telemetry.Counter
	entriesG, bytesG        *telemetry.Gauge
}

func newSchedCache(maxEntries int, maxBytes int64, r *telemetry.Registry) *schedCache {
	c := &schedCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		byKey:      make(map[string]*list.Element),
	}
	if r != nil {
		c.hits = r.Counter(MetricCacheHits)
		c.misses = r.Counter(MetricCacheMisses)
		c.evictions = r.Counter(MetricCacheEvictions)
		c.entriesG = r.Gauge(MetricCacheEntries)
		c.bytesG = r.Gauge(MetricCacheBytes)
	}
	return c
}

// get returns the entry for digest (refreshing its recency) or nil,
// counting the hit or miss.
func (c *schedCache) get(digest string) *cacheEntry {
	e := c.find(digest)
	if e == nil {
		c.misses.Inc()
	}
	return e
}

// find is get without the miss count: a caller that falls back to get
// on nil counts each lookup exactly once.
func (c *schedCache) find(digest string) *cacheEntry {
	el := c.byKey[digest]
	if el == nil {
		return nil
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put inserts an entry (replacing any same-digest predecessor) and
// evicts from the cold end until the bounds hold again. The newest
// entry itself is never evicted, even when it alone exceeds the byte
// bound — it will age out normally once something else lands.
func (c *schedCache) put(e *cacheEntry) {
	if old := c.byKey[e.digest]; old != nil {
		c.bytes -= old.Value.(*cacheEntry).size
		c.ll.Remove(old)
		delete(c.byKey, e.digest)
	}
	c.byKey[e.digest] = c.ll.PushFront(e)
	c.bytes += e.size
	for c.ll.Len() > 1 && (c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes) {
		c.evictOldest()
	}
	c.publish()
}

func (c *schedCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	old := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.byKey, old.digest)
	c.bytes -= old.size
	c.evictions.Inc()
}

func (c *schedCache) publish() {
	c.entriesG.Set(float64(c.ll.Len()))
	c.bytesG.Set(float64(c.bytes))
}

// lru is a least-recently-used map bounded by entry count. A full
// put evicts from the cold end and hands each evicted value to onEvict
// (when set). Not safe for concurrent use — the Server's mutex guards
// every instance.
type lru[K comparable, V any] struct {
	max     int
	ll      *list.List // front = most recently used; values are *lruEntry[K, V]
	byKey   map[K]*list.Element
	onEvict func(V)
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int, onEvict func(V)) *lru[K, V] {
	return &lru[K, V]{max: max, ll: list.New(), byKey: make(map[K]*list.Element), onEvict: onEvict}
}

// get returns the value for key (refreshing its recency), or V's zero
// value when key is absent.
func (c *lru[K, V]) get(key K) V {
	el := c.byKey[key]
	if el == nil {
		var zero V
		return zero
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val
}

// put inserts or replaces key's value as the most recently used.
func (c *lru[K, V]) put(key K, val V) {
	if el := c.byKey[key]; el != nil {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return
	}
	c.byKey[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		old := el.Value.(*lruEntry[K, V])
		c.ll.Remove(el)
		delete(c.byKey, old.key)
		if c.onEvict != nil {
			c.onEvict(old.val)
		}
	}
}

func (c *lru[K, V]) len() int { return c.ll.Len() }

// acgCache content-addresses built platforms: platform key → the
// shared *energy.ACG every same-platform request schedules against.
// Sharing the pointer is what makes the batch engine's per-ACG route
// plan actually shared across requests; the eviction hook lets the
// Server drop the engine's plan alongside, so neither map pins dead
// platforms.
type acgCache = lru[string, *energy.ACG]

func newACGCache(max int, onEvict func(*energy.ACG)) *acgCache {
	return newLRU[string](max, onEvict)
}

// bodyMemo maps the SHA-256 of a raw request body to the workload
// digest that body resolved to. Decoding, validation and the digest
// are pure functions of the body bytes, so a remembered body needs
// none of them again. Only bodies that resolved are ever recorded.
type bodyMemo = lru[[sha256.Size]byte, string]
