// Package shard routes work across many independent audit-game engines —
// one per tenant — behind a single process. Each tenant (a hospital, in the
// paper's deployment story) runs its own audit cycle, budget, and OSSP
// state; the router owns the map from tenant ID to engine and keeps the
// box-wide resource envelope bounded:
//
//   - Every tenant engine shares one immutable game.Instance, and each
//     decision solves its candidate LPs on the caller's goroutine, so
//     concurrent simplex work is bounded by the number of in-flight
//     requests (see package admit), not by how many tenants are resident.
//   - The decision-cache footprint is bounded by Config.CacheBudget: on
//     every tenant create/remove the router rebalances the per-engine cache
//     capacity to budget/n, evicting LRU entries down to the new share.
//
// Routing is by explicit tenant ID. IDs are mapped to lock-striped buckets
// with an FNV hash, so tenant lookup — on the decision hot path — takes one
// striped read lock and never contends with lookups for tenants in other
// buckets. Creation is serialized on a single mutex: it is rare (once per
// tenant lifetime), and serializing it makes the cap check and the cache
// rebalance atomic.
//
// The router deliberately knows nothing about HTTP. The serving layer
// (internal/server) stores its per-tenant request state in Tenant.Data and
// handles header parsing, create-on-first-use policy, and error mapping.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/obs"
)

// Shard metric names, exported so operators and tests share one spelling.
const (
	// MetricTenantsActive gauges the number of resident tenants.
	MetricTenantsActive = "sag_shard_tenants_active"
	// MetricRebalanceTotal counts cache-budget rebalances (one per tenant
	// create or remove when a cache budget is configured).
	MetricRebalanceTotal = "sag_shard_rebalance_total"
	// MetricTenantsCreatedTotal counts tenants ever created, including ones
	// since removed.
	MetricTenantsCreatedTotal = "sag_shard_tenants_created_total"
	// MetricTenantLimitTotal counts creations refused by the tenant cap.
	MetricTenantLimitTotal = "sag_shard_tenant_limit_total"
	// MetricEvictionsTotal counts tenants evicted via Remove. Before the WAL
	// an eviction silently dropped the tenant's cycle state; now every one is
	// counted, logged with its tenant ID, and (when durability is configured)
	// preceded by a snapshot via Config.OnEvict.
	MetricEvictionsTotal = "sag_shard_evictions_total"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxTenants = 64
	DefaultBuckets    = 16
)

// ErrTenantLimit reports that creating one more tenant would exceed
// Config.MaxTenants. The serving layer maps it to 429.
var ErrTenantLimit = errors.New("shard: tenant limit reached")

// MaxIDLength bounds tenant identifiers; see ValidID.
const MaxIDLength = 64

// ValidID reports whether id is an acceptable tenant identifier: 1 to
// MaxIDLength characters drawn from [A-Za-z0-9._-]. The restriction keeps
// IDs safe as metric label values and log tokens.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > MaxIDLength {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Seed derives a stable 64-bit value from a tenant ID (FNV-1a). The serving
// layer XORs it into its base RNG seed so every tenant gets a distinct,
// reproducible signal-sampling stream.
func Seed(id string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return h.Sum64()
}

// Tenant is one resident tenant: its identifier, its dedicated engine, and
// an opaque slot for the embedding layer's per-tenant state (the HTTP
// server keeps its lifecycle lock, counters, and flagged-user set there).
type Tenant struct {
	ID     string
	Engine *core.Engine
	Data   any
}

// Config assembles a Router.
type Config struct {
	// New builds a tenant's engine (and optional embedder state) on first
	// use. Required. It runs under the router's creation lock, so it must
	// not call back into the router.
	New func(id string) (*core.Engine, any, error)
	// MaxTenants caps resident tenants; GetOrCreate returns ErrTenantLimit
	// beyond it. Zero or negative selects DefaultMaxTenants.
	MaxTenants int
	// Buckets is the number of lock stripes for tenant lookup. Zero or
	// negative selects DefaultBuckets.
	Buckets int
	// CacheBudget is the total decision-cache entry budget shared by all
	// tenant engines: each resident tenant's cache capacity is rebalanced
	// to CacheBudget/n (at least 1) on every create/remove. Zero disables
	// rebalancing (each engine keeps the capacity it was built with).
	CacheBudget int
	// Metrics receives the sag_shard_* instruments; nil uses a private
	// registry so the router's accounting always works.
	Metrics *obs.Registry
	// OnEvict, when non-nil, runs for each tenant Remove evicts — after the
	// tenant is unlinked from the map (no new lookup can reach it) but
	// before Remove returns, under the creation lock. The durable server
	// uses it to drain the tenant's in-flight work, snapshot its engine
	// state, and seal its journal so eviction is unload, not loss. It must
	// not call back into the router.
	OnEvict func(*Tenant)
	// Logf, when non-nil, receives eviction log lines (tenant ID included),
	// so unloads are always traceable. Nil disables logging.
	Logf func(format string, args ...any)
}

type bucket struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// Router owns the tenant map. Lock hierarchy (acquire top to bottom):
//
//	createMu  — serializes tenant creation, removal, and the cache-budget
//	            rebalance that accompanies them.
//	bucket.mu — striped RWMutex over one bucket's tenant map; the lookup
//	            hot path takes only this, in read mode.
//
// Engine-internal locks are below both and are never held while acquiring
// either.
type Router struct {
	cfg      Config
	buckets  []bucket
	createMu sync.Mutex
	count    atomic.Int64

	active    *obs.Gauge
	rebalance *obs.Counter
	created   *obs.Counter
	limited   *obs.Counter
	evicted   *obs.Counter
}

// NewRouter validates cfg and returns an empty router.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.New == nil {
		return nil, errors.New("shard: Config.New is required")
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = DefaultBuckets
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Router{
		cfg:       cfg,
		buckets:   make([]bucket, cfg.Buckets),
		active:    reg.Gauge(MetricTenantsActive, "Resident tenants."),
		rebalance: reg.Counter(MetricRebalanceTotal, "Cache-budget rebalances across tenant engines."),
		created:   reg.Counter(MetricTenantsCreatedTotal, "Tenants ever created."),
		limited:   reg.Counter(MetricTenantLimitTotal, "Tenant creations refused by the cap."),
		evicted:   reg.Counter(MetricEvictionsTotal, "Tenants evicted (state snapshotted first when durable)."),
	}
	for i := range r.buckets {
		r.buckets[i].tenants = make(map[string]*Tenant)
	}
	return r, nil
}

// bucketFor maps a tenant ID to its lock stripe.
func (r *Router) bucketFor(id string) *bucket {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return &r.buckets[h.Sum32()%uint32(len(r.buckets))]
}

// Get returns the resident tenant for id, if any. This is the decision
// hot path: one striped read lock, no allocation beyond the hash.
func (r *Router) Get(id string) (*Tenant, bool) {
	b := r.bucketFor(id)
	b.mu.RLock()
	t, ok := b.tenants[id]
	b.mu.RUnlock()
	return t, ok
}

// GetOrCreate returns the tenant for id, building it via Config.New on
// first use. The boolean reports whether this call created the tenant.
// Creation respects MaxTenants (ErrTenantLimit beyond it) and rebalances
// the shared cache budget across all resident engines.
func (r *Router) GetOrCreate(id string) (*Tenant, bool, error) {
	if t, ok := r.Get(id); ok {
		return t, false, nil
	}
	r.createMu.Lock()
	defer r.createMu.Unlock()
	if t, ok := r.Get(id); ok { // lost the creation race
		return t, false, nil
	}
	if int(r.count.Load()) >= r.cfg.MaxTenants {
		r.limited.Inc()
		return nil, false, fmt.Errorf("%w (%d resident)", ErrTenantLimit, r.count.Load())
	}
	eng, data, err := r.cfg.New(id)
	if err != nil {
		return nil, false, err
	}
	t := &Tenant{ID: id, Engine: eng, Data: data}
	b := r.bucketFor(id)
	b.mu.Lock()
	b.tenants[id] = t
	b.mu.Unlock()
	n := r.count.Add(1)
	r.active.Set(float64(n))
	r.created.Inc()
	r.rebalanceLocked(int(n))
	return t, true, nil
}

// Remove evicts a tenant, rebalancing the cache budget across the
// remainder. It reports whether the tenant was resident. The eviction is
// never silent: it is counted in sag_shard_evictions_total and logged with
// the tenant ID via Config.Logf, and Config.OnEvict runs after the tenant
// is unlinked (so the embedder can drain it, snapshot its state, and seal
// its journal) but before Remove returns.
func (r *Router) Remove(id string) bool { return r.RemoveIf(id, nil) }

// RemoveIf is Remove for one tenant instance: given non-nil data it evicts
// id only while data is the resident tenant's Data, so a holder of a stale
// instance never evicts the one rebuilt in its place.
func (r *Router) RemoveIf(id string, data any) bool {
	r.createMu.Lock()
	defer r.createMu.Unlock()
	b := r.bucketFor(id)
	b.mu.Lock()
	t, ok := b.tenants[id]
	if ok = ok && (data == nil || t.Data == data); ok {
		delete(b.tenants, id)
	}
	b.mu.Unlock()
	if !ok {
		return false
	}
	n := r.count.Add(-1)
	r.active.Set(float64(n))
	if r.cfg.OnEvict != nil {
		r.cfg.OnEvict(t)
	}
	r.rebalanceLocked(int(n))
	r.evicted.Inc()
	if r.cfg.Logf != nil {
		r.cfg.Logf("shard: evicted tenant %s (%d resident)", t.ID, n)
	}
	return true
}

// rebalanceLocked divides the cache budget evenly across the n resident
// engines, evicting LRU entries from any engine above its new share. The
// caller holds createMu.
func (r *Router) rebalanceLocked(n int) {
	if r.cfg.CacheBudget <= 0 || n <= 0 {
		return
	}
	share := r.cfg.CacheBudget / n
	if share < 1 {
		share = 1
	}
	r.Range(func(t *Tenant) bool {
		t.Engine.SetCacheCapacity(share)
		return true
	})
	r.rebalance.Inc()
}

// CacheShare returns the per-tenant cache capacity the router last
// rebalanced to (0 when no budget is configured or no tenant is resident).
func (r *Router) CacheShare() int {
	n := r.Len()
	if r.cfg.CacheBudget <= 0 || n == 0 {
		return 0
	}
	share := r.cfg.CacheBudget / n
	if share < 1 {
		share = 1
	}
	return share
}

// Len returns the number of resident tenants.
func (r *Router) Len() int { return int(r.count.Load()) }

// Range calls fn for every resident tenant until fn returns false. The
// iteration order is unspecified. Tenants created or removed concurrently
// may or may not be visited; fn runs without any router lock held beyond
// the bucket snapshot, so it may call back into Get/GetOrCreate.
func (r *Router) Range(fn func(*Tenant) bool) {
	for i := range r.buckets {
		b := &r.buckets[i]
		b.mu.RLock()
		snapshot := make([]*Tenant, 0, len(b.tenants))
		for _, t := range b.tenants {
			snapshot = append(snapshot, t)
		}
		b.mu.RUnlock()
		for _, t := range snapshot {
			if !fn(t) {
				return
			}
		}
	}
}

// IDs returns the resident tenant IDs, sorted. It is Range distilled to the
// one projection every caller of Range-for-listing re-implemented.
func (r *Router) IDs() []string {
	ids := make([]string, 0, r.Len())
	r.Range(func(t *Tenant) bool {
		ids = append(ids, t.ID)
		return true
	})
	sort.Strings(ids)
	return ids
}
