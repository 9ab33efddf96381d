package core

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// CacheConfig configures the engine's per-cycle decision cache.
//
// The cache memoizes the full decide() pipeline — future-rate estimation
// already done, SSE solve, and signaling scheme — keyed on the game state
// that determines the decision: the alert's type, the remaining budget, and
// the estimated future-rate vector. Budget and rates are quantized before
// keying, so states that are equal up to the configured quanta share one
// entry. With both quanta zero the key is exact (bit-level float identity)
// and a hit is guaranteed to reproduce the fresh solve; positive quanta
// trade exactness for hit rate, bounded by the solution's Lipschitz
// dependence on budget and rates.
//
// Because the remaining budget is part of the key, spending budget
// invalidates stale entries implicitly: the next lookup at the new budget
// (or the new quantization bucket) misses and re-solves. NewCycle clears
// the cache outright.
type CacheConfig struct {
	// Size is the maximum number of cached decisions; least-recently-used
	// entries are evicted beyond it. Zero (or negative) disables caching.
	Size int
	// BudgetQuantum is the bucket width for the remaining budget in the
	// cache key. Zero means exact (Float64bits) matching.
	BudgetQuantum float64
	// RateQuantum is the bucket width for each future-rate coordinate.
	// Zero means exact matching.
	RateQuantum float64
}

func (c CacheConfig) validate() error {
	for _, q := range []float64{c.BudgetQuantum, c.RateQuantum} {
		if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("core: invalid cache quantum %g", q)
		}
	}
	return nil
}

// CacheStats is a snapshot of the decision cache's effectiveness counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cacheEntry pairs a key with its memoized decision inside the LRU list.
type cacheEntry struct {
	key string
	d   Decision
}

// decisionCache is a fixed-capacity LRU map from encoded game state to a
// Decision value. It carries its own mutex: since the engine stopped holding
// its budget lock across the solve pipeline, cache lookups happen both
// inside the engine's critical section (the degraded ladder) and outside it
// (the optimistic decide path), so the cache serializes itself. Lock order:
// the engine's mutex may be held when acquiring mu, never the reverse.
type decisionCache struct {
	cfg       CacheConfig
	mu        sync.Mutex
	order     *list.List // front = most recently used
	byKey     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

func newDecisionCache(cfg CacheConfig) *decisionCache {
	return &decisionCache{
		cfg:   cfg,
		order: list.New(),
		byKey: make(map[string]*list.Element, cfg.Size),
	}
}

// quantize maps v to its bucket index under quantum q; q == 0 preserves the
// exact bit pattern so distinct floats never collide.
func quantize(v, q float64) uint64 {
	if q == 0 {
		return math.Float64bits(v)
	}
	return uint64(int64(math.Round(v / q)))
}

// key encodes (type, quantized budget, quantized rates) under the cache's
// configured quanta into a compact binary string: the canonical identity of
// a decision state.
func (c *decisionCache) key(alertType int, budget float64, rates []float64) string {
	buf := make([]byte, 8*(2+len(rates)))
	binary.LittleEndian.PutUint64(buf[0:], uint64(alertType))
	binary.LittleEndian.PutUint64(buf[8:], quantize(budget, c.cfg.BudgetQuantum))
	for i, r := range rates {
		binary.LittleEndian.PutUint64(buf[16+8*i:], quantize(r, c.cfg.RateQuantum))
	}
	return string(buf)
}

// get returns a copy of the cached decision for key, if present, promoting
// the entry to most-recently-used.
func (c *decisionCache) get(key string) (Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return Decision{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).d, true
}

// latestForType returns a copy of the most-recently-used cached decision for
// the given alert type, regardless of the budget/rate portion of its key.
// This is the degraded-mode lookup: when the pipeline cannot solve the
// current game state in time, the freshest decision ever made for this type
// is the best stand-in the cycle has. It does not touch LRU order or the
// hit/miss counters — degraded reuse is not a cache hit.
func (c *decisionCache) latestForType(alertType int) (Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*cacheEntry); ent.d.Alert.Type == alertType {
			return ent.d, true
		}
	}
	return Decision{}, false
}

// put stores a copy of d under key, evicting the least-recently-used entry
// at capacity. It reports whether an eviction happened.
func (c *decisionCache) put(key string, d Decision) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).d = d
		c.order.MoveToFront(el)
		return false
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, d: d})
	if c.order.Len() <= c.cfg.Size {
		return false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.byKey, oldest.Value.(*cacheEntry).key)
	c.evictions++
	return true
}

// setCapacity changes the cache's entry limit in place, evicting
// least-recently-used entries if the cache currently holds more than the new
// limit. It returns the number of entries evicted. A limit <= 0 is clamped
// to 1: capacity is rebalanced, never turned off, once a cache exists (the
// multi-tenant router divides one entry budget across live tenants).
func (c *decisionCache) setCapacity(n int) int {
	if n <= 0 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Size = n
	evicted := 0
	for c.order.Len() > n {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions++
		evicted++
	}
	return evicted
}

// clear drops every entry (new audit cycle); the effectiveness counters are
// cumulative across cycles and survive.
func (c *decisionCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.byKey)
}

func (c *decisionCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *decisionCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.order.Len()}
}
