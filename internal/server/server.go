// Package server exposes the online Signaling Audit Game as an HTTP
// service — the deployment shape the paper describes: an EMR front end
// calls the service for every access request; benign requests pass
// silently, suspicious ones get a real-time warn/allow decision; at the end
// of the audit cycle the service emits the retrospective audit plan.
//
// Endpoints (JSON over HTTP, stdlib net/http only):
//
//	POST /v1/access        — evaluate one access; returns whether to warn
//	POST /v1/quit          — report that a warned user abandoned the access
//	POST /v1/cycle/close   — sample and return the retrospective audit plan
//	POST /v1/cycle/new     — start the next audit cycle with a fresh budget
//	GET  /v1/status        — budget, counts, and configuration snapshot
//	GET  /v1/metrics       — Prometheus text exposition (HTTP + engine + solver)
//	GET  /v1/healthz       — liveness probe (always 200 while serving)
//	GET  /v1/readyz        — readiness probe (503 once draining)
//
// Multi-tenancy: one server hosts many independent audit cycles — one per
// tenant (a hospital, in the paper's deployment story) — routed by the
// X-SAG-Tenant header, the "tenant" body field, or (for GET /v1/status) the
// ?tenant= query parameter; requests that carry none use the default
// tenant. Each tenant owns a dedicated core.Engine behind a shard.Router
// (see internal/shard): its own budget chain, decision cache, fallback
// state, and RNG stream. Tenants are created on first use up to
// Config.MaxTenants (429 beyond it); the world, detection rules, and game
// instance — all immutable during serving — are shared.
//
// Concurrency: the serving hot path is not globally serialized. Decisions
// run concurrently through each engine's optimistic snapshot/commit
// protocol (see core.Engine); the server takes only a per-tenant read lock
// on the cycle lifecycle, so /v1/access requests overlap freely — across
// tenants and within one — while /v1/cycle/close and /v1/cycle/new take
// that tenant's write side and drain its in-flight decisions before the
// rollover. Per-cycle counters are atomics and each tenant's flagged-user
// set has its own small mutex. The full locking hierarchy is documented in
// DESIGN.md.
//
// The serving path is hardened for production shapes: request bodies are
// capped (Config.MaxBodyBytes), the API is wrapped in panic recovery and an
// optional per-request timeout, each engine decision can carry a deadline
// with graceful degradation (the fallback ladder in internal/fallback), and
// Run provides the full listener lifecycle — server timeouts, health-gated
// draining, and coordinated shutdown of the main and debug listeners.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/faultinject"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/retain"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// TenantHeader is the request header naming the tenant an API call is for.
// It wins over the "tenant" body field; absent both, the request routes to
// Config.DefaultTenant.
const TenantHeader = "X-SAG-Tenant"

// DefaultTenantID is the tenant used when Config.DefaultTenant is empty and
// a request names no tenant.
const DefaultTenantID = "default"

// defaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is zero.
const defaultMaxBodyBytes = 1 << 20

// Config assembles a Server.
type Config struct {
	// World and detection rules: every access is joined against these. Both
	// are shared by all tenants — the world is immutable during serving and
	// the taxonomy is append-only and self-locking.
	World    *emr.World
	Taxonomy *alerts.Taxonomy
	// TypeIDs maps taxonomy type IDs to engine type indices (position in
	// the slice = engine index). Alerts of unlisted types are logged but
	// not gamed (treated as benign for auditing purposes).
	TypeIDs []int
	// Instance, Budget, Estimator, Seed configure the game engines. The
	// instance is shared by every tenant engine: its payoffs are immutable.
	// Budget is each new tenant's initial cycle budget. Seed seeds the
	// default tenant's RNG exactly; other tenants fold in a hash of their
	// ID (see shard.Seed) so streams are distinct but reproducible.
	Instance  *game.Instance
	Budget    float64
	Estimator core.Estimator
	Seed      int64
	// NewEstimator, when non-nil, builds a dedicated estimator per tenant —
	// required for stateful estimators (the knowledge-rollback history
	// estimator), which must not share observation state across tenants.
	// When nil, every tenant engine shares Estimator; that is only sound
	// for stateless estimators (fixed rate curves).
	NewEstimator func(tenant string) (core.Estimator, error)
	// Cache is the box-wide decision-cache budget: Cache.Size entries are
	// divided evenly across resident tenants (rebalanced as tenants come
	// and go), each share keyed with Cache's quanta. The zero value
	// disables caching for every tenant.
	Cache core.CacheConfig
	// MaxTenants caps resident tenants; creation beyond it answers 429.
	// Zero selects shard.DefaultMaxTenants.
	MaxTenants int
	// DefaultTenant names the tenant used by requests that carry none;
	// empty selects DefaultTenantID. It is created eagerly by New.
	DefaultTenant string
	// MaxBodyBytes caps request bodies; oversized ones answer 413. Zero
	// selects 1 MiB.
	MaxBodyBytes int64
	// Clock returns the current offset within the audit cycle; defaults to
	// wall-clock time-of-day. Tests inject a fake.
	Clock func() time.Duration
	// Metrics, when non-nil, is the registry served by GET /v1/metrics and
	// shared with the game engines. When nil the server creates a private
	// registry, so the endpoint is always live. Engine and per-tenant
	// server series carry a tenant="<id>" label.
	Metrics *obs.Registry
	// DecisionDeadline bounds each engine decision (see
	// core.Config.DecisionDeadline). The server always enables the engine's
	// graceful degradation, so an expired deadline yields a degraded
	// decision, never a 5xx. Zero means no per-decision deadline.
	DecisionDeadline time.Duration
	// RequestTimeout bounds each request end to end; requests that exceed it
	// are answered 503. Zero disables the per-request timeout.
	RequestTimeout time.Duration
	// Admission configures overload protection for the mutation hot path
	// (/v1/access and /v1/quit): per-tenant token-bucket rate limits, a
	// box-wide inflight cap with a bounded round-robin-fair admission
	// queue, and deadline-aware shedding (503 + computed Retry-After). The
	// zero value admits everything. When Admission.MaxWait is zero it
	// defaults to DecisionDeadline — a queue wait that would eat the whole
	// decision deadline is shed up front. See internal/admit.
	Admission admit.Config
	// SSESolve overrides the engines' online SSE solver (nil means the real
	// game.SolveOnlineSSECtx). Injection seam for fault-injection and for
	// the concurrency tests, which substitute a blocking solver to prove
	// decisions overlap.
	SSESolve core.SSESolveFunc
	// DataDir, when non-empty, enables durability: every tenant gets a
	// write-ahead journal under DataDir/tenants/, each acknowledged
	// state-changing request is journaled before its response is written,
	// and a tenant booting with an existing journal recovers its full cycle
	// state (snapshot + tail replay) bit-identically. Empty keeps the
	// previous in-memory-only behavior.
	DataDir string
	// Fsync selects the journal durability policy (always / interval /
	// none); the zero value is wal.FsyncAlways. Only meaningful with
	// DataDir.
	Fsync wal.FsyncPolicy
	// SnapshotEvery is the automatic snapshot cadence in journal records
	// per tenant; zero selects DefaultSnapshotEvery. Only meaningful with
	// DataDir.
	SnapshotEvery int
	// SegmentBytes overrides the journal segment roll size; zero keeps
	// wal.DefaultSegmentBytes. Only meaningful with DataDir. Drills shrink
	// it to force segment rolls (and snapshot pruning) quickly.
	SegmentBytes int64
	// DiskBudgetBytes, when positive, bounds the box-wide journal footprint:
	// a background compactor (see internal/retain) accounts every resident
	// tenant's journal bytes against this budget and schedules
	// snapshot-then-prune on the tenants holding the most reclaimable bytes.
	// When the box stays over budget and a tenant has nothing left to
	// reclaim, its hot-path mutations answer 507 + Retry-After. Zero
	// disables retention (journals grow until their own snapshot cadence
	// prunes them). Only meaningful with DataDir.
	DiskBudgetBytes int64
	// CompactInterval is the retention compactor's scan cadence; zero
	// selects retain.DefaultInterval. Only meaningful with DiskBudgetBytes.
	CompactInterval time.Duration
	// FollowPrimary, when non-empty, starts the server as a hot standby of
	// the primary at this base URL: every durable tenant is replicated via
	// WAL log shipping (see internal/replica), reads are served from the
	// warm engines, and every mutation answers 503 until POST
	// /v1/admin/promote. Requires DataDir.
	FollowPrimary string
	// FollowerReadyLag is the catch-up threshold for a follower's readiness
	// probe: /v1/readyz answers 200 only once every replicated tenant's lag
	// is at or below this many records (default 0 — fully caught up).
	FollowerReadyLag int
	// Logf receives server log lines (recovery banners, truncation notices,
	// eviction traces). Nil disables logging.
	Logf func(format string, args ...any)
}

// tenantState is one tenant's serving state: its engine plus the HTTP
// layer's per-tenant lifecycle and counters. It rides in shard.Tenant.Data.
//
// Locking hierarchy (acquire top to bottom, never upward):
//
//	lifecycle — RWMutex over this tenant's cycle transitions. Decision
//	            handlers hold the read side for their whole request, so any
//	            number overlap; /v1/cycle/close and /v1/cycle/new hold the
//	            write side, so a rollover waits for in-flight decisions and
//	            no decision ever spans a cycle boundary. Also guards closed.
//	flaggedMu — RWMutex over this tenant's flagged-quitter set only.
//	engine    — core.Engine's own internal locks (optimistic commit).
//
// Per-cycle counters (accesses, alerts, warned, quits) are atomics: they
// are written on the hot path and read only by /v1/status and the close
// handler's seed derivation.
type tenantState struct {
	id         string
	seedOffset int64 // folded into RNG seeds; 0 for the default tenant
	engine     *core.Engine
	est        core.Estimator // this tenant's estimator (for state snapshots)
	met        tenantMetrics
	journal    *wal.Journal // nil when durability is disabled

	lifecycle sync.RWMutex
	closed    bool // cycle closed, awaiting /v1/cycle/new; guarded by lifecycle
	// sealed is set (under lifecycle) when eviction has snapshotted the
	// tenant and closed its journal. A request that resolved this holder
	// before the router unlinked it must not use it — re-resolving rebuilds
	// the tenant from the sealed journal (see resolveTenantLocked).
	sealed bool

	flaggedMu sync.RWMutex
	flagged   map[int]bool

	accesses atomic.Int64
	alerts   atomic.Int64
	warned   atomic.Int64
	quits    atomic.Int64

	walRecords   atomic.Int64 // journal records since the last snapshot
	snapshotting atomic.Bool  // one background snapshot at a time
	lastAppend   atomic.Int64 // unix nanos of the last journal append (retention idleness)

	// repl is the follower-side replication position recovered from the
	// tenant's mirrored journal at build time, and written back by the
	// replication client when it stops (synchronized by the follow
	// controller's WaitGroup; promotion reads it after the clients exit).
	repl replState
}

// replState is a tenant's replication resume position: where its mirrored
// journal ends, the checksum proving it, and whether the warm engine has
// been seeded with applied state.
type replState struct {
	cur     wal.Cursor
	crc     uint32
	records int64
	seeded  bool
}

// Server is the HTTP facade. Create with New and mount via Handler.
type Server struct {
	detector  *alerts.Engine
	cfg       Config
	met       serverMetrics
	typeIdx   map[int]int // taxonomy ID → engine index
	router    *shard.Router
	defaultID string
	maxBody   int64
	ready     atomic.Bool

	// admit is the admission controller gating the mutation hot path; nil
	// when Config.Admission is the zero value (admit everything).
	admit *admit.Controller

	// retain is the background retention compactor bounding journal disk
	// use; nil unless DataDir and DiskBudgetBytes are both set.
	retain *retain.Compactor

	// following is true while the server is a replicating standby; flipped
	// false (permanently) by Promote. Mutation handlers gate on it.
	following atomic.Bool
	follow    atomic.Pointer[followController] // set by StartFollowing

	journalFault atomic.Pointer[journalFault] // see SetJournalFault
}

type journalFault struct {
	op wal.FaultOp
	p  *faultinject.Point
}

// New validates the configuration and builds the server. The default
// tenant is created eagerly, so a single-tenant deployment never pays the
// create-on-first-use path.
func New(cfg Config) (*Server, error) {
	if cfg.World == nil || cfg.Taxonomy == nil {
		return nil, errors.New("server: World and Taxonomy are required")
	}
	if cfg.Instance == nil {
		return nil, errors.New("server: Instance is required")
	}
	if cfg.Estimator == nil && cfg.NewEstimator == nil {
		return nil, errors.New("server: Estimator or NewEstimator is required")
	}
	if len(cfg.TypeIDs) != cfg.Instance.NumTypes() {
		return nil, fmt.Errorf("server: %d type IDs for %d engine types", len(cfg.TypeIDs), cfg.Instance.NumTypes())
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = DefaultTenantID
	}
	if !shard.ValidID(cfg.DefaultTenant) {
		return nil, fmt.Errorf("server: invalid default tenant %q", cfg.DefaultTenant)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.FollowPrimary != "" && cfg.DataDir == "" {
		return nil, errors.New("server: following a primary requires a data dir")
	}
	if cfg.DiskBudgetBytes > 0 && cfg.DataDir == "" {
		return nil, errors.New("server: a disk budget requires a data dir")
	}
	detector, err := alerts.NewEngine(cfg.World, cfg.Taxonomy)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Duration {
			now := time.Now()
			return time.Duration(now.Hour())*time.Hour +
				time.Duration(now.Minute())*time.Minute +
				time.Duration(now.Second())*time.Second
		}
	}
	idx := make(map[int]int, len(cfg.TypeIDs))
	for i, id := range cfg.TypeIDs {
		if _, dup := idx[id]; dup {
			return nil, fmt.Errorf("server: duplicate type ID %d", id)
		}
		idx[id] = i
	}
	s := &Server{
		detector:  detector,
		cfg:       cfg,
		met:       newServerMetrics(cfg.Metrics),
		typeIdx:   idx,
		defaultID: cfg.DefaultTenant,
		maxBody:   cfg.MaxBodyBytes,
	}
	if cfg.Admission.Enabled() {
		adm := cfg.Admission
		if adm.MaxWait == 0 {
			// A queue wait that would consume the whole decision deadline
			// leaves the engine nothing but its static fallback rung; shed
			// those requests at the door instead.
			adm.MaxWait = cfg.DecisionDeadline
		}
		if adm.MaxTenants == 0 {
			// Gate bookkeeping is tiny; 4× the resident-tenant cap leaves
			// room for evicted tenants whose clients are still arriving.
			residents := cfg.MaxTenants
			if residents <= 0 {
				residents = shard.DefaultMaxTenants
			}
			adm.MaxTenants = 4 * residents
		}
		if adm.Metrics == nil {
			adm.Metrics = s.met.reg
		}
		ctl, err := admit.New(adm)
		if err != nil {
			return nil, fmt.Errorf("server: admission: %w", err)
		}
		s.admit = ctl
	}
	// Set before the first buildTenant call: follower tenants recover their
	// local mirror instead of opening a writable journal.
	s.following.Store(cfg.FollowPrimary != "")
	s.router, err = shard.NewRouter(shard.Config{
		New:         s.buildTenant,
		MaxTenants:  cfg.MaxTenants,
		CacheBudget: cfg.Cache.Size,
		Metrics:     s.met.reg,
		OnEvict:     s.evictTenant,
		Logf:        cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := s.router.GetOrCreate(s.defaultID); err != nil {
		return nil, err
	}
	if s.durable() && cfg.DiskBudgetBytes > 0 {
		comp, err := retain.New(retain.Config{
			BudgetBytes: cfg.DiskBudgetBytes,
			Interval:    cfg.CompactInterval,
			List:        s.listRetainTenants,
			Metrics:     s.met.reg,
			Logf:        cfg.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("server: retention: %w", err)
		}
		s.retain = comp
		comp.Start()
	}
	s.ready.Store(true)
	return s, nil
}

// buildTenant is the shard.Router constructor: one engine + serving state
// per tenant. The default tenant's RNG seed is Config.Seed exactly, so a
// single-tenant deployment is bit-identical (decisions, signal draws, audit
// plans) to the pre-sharding server; other tenants fold in shard.Seed(id).
func (s *Server) buildTenant(id string) (*core.Engine, any, error) {
	var seedOffset int64
	if id != s.defaultID {
		seedOffset = int64(shard.Seed(id))
	}
	est := s.cfg.Estimator
	if s.cfg.NewEstimator != nil {
		var err error
		if est, err = s.cfg.NewEstimator(id); err != nil {
			return nil, nil, fmt.Errorf("server: estimator for tenant %q: %w", id, err)
		}
	}
	t := &tenantState{
		id:         id,
		seedOffset: seedOffset,
		est:        est,
		met:        newTenantMetrics(s.met.reg, id),
		flagged:    make(map[int]bool),
	}
	// The engine's durability hook: enqueue the committed decision on this
	// tenant's journal (the engine calls it under its budget lock, in commit
	// order, and awaits the returned group-commit wait after unlocking).
	// t.journal is set by openTenantJournal before the router publishes the
	// tenant — except on a follower, where it stays nil until Promote opens
	// it; the mutation gate keeps decisions out until then.
	var journalFn core.JournalFunc
	if s.durable() {
		journalFn = func(rec core.DecisionRecord) (func() error, error) {
			j := t.journal
			if j == nil {
				return nil, errors.New("server: tenant journal not open (standby not promoted)")
			}
			wait, err := j.Append(wal.Record{Kind: wal.KindDecision, Decision: rec})
			if err != nil {
				return nil, err
			}
			s.noteAppend(t)
			return wait, nil
		}
	}
	engine, err := core.NewEngine(core.Config{
		Instance:  s.cfg.Instance,
		Budget:    s.cfg.Budget,
		Estimator: est,
		Policy:    core.PolicyOSSP,
		Rand:      rand.New(rand.NewSource(s.cfg.Seed ^ seedOffset)),
		Cache:     s.cfg.Cache,
		Metrics:   s.met.reg,
		// Every engine series carries the tenant label so one scrape
		// separates the tenants' budget chains, cache effectiveness, and
		// fallback activity.
		MetricLabels: []obs.Label{obs.L("tenant", id)},
		// The serving path never trades availability for optimality: a
		// failed or slow solve degrades down the fallback ladder (cache →
		// last-good θ → static never-warn policy) instead of surfacing as an
		// error to the EMR front end.
		DecisionDeadline: s.cfg.DecisionDeadline,
		Fallback:         true,
		SSESolve:         s.cfg.SSESolve,
		Journal:          journalFn,
	})
	if err != nil {
		return nil, nil, err
	}
	t.engine = engine
	switch {
	case s.durable() && s.following.Load():
		// Follower: recover whatever the mirror already holds so the engine
		// is warm, but leave the journal closed — the replication client owns
		// the directory until Promote.
		if err := s.recoverTenantLocal(t); err != nil {
			return nil, nil, err
		}
	case s.durable():
		// Open (and recover) the tenant's journal before the router publishes
		// the tenant: a restart restores the snapshot + replays the tail, so
		// the first request after boot continues the interrupted cycle.
		if err := s.openTenantJournal(t); err != nil {
			return nil, nil, err
		}
	}
	return engine, t, nil
}

// EnsureTenant creates the tenant if it is not yet resident — the
// pre-provisioning hook cmd/sagserver's -tenants flag uses so benchmarked
// tenants skip the create-on-first-use path.
func (s *Server) EnsureTenant(id string) error {
	if !shard.ValidID(id) {
		return fmt.Errorf("server: invalid tenant ID %q", id)
	}
	_, _, err := s.router.GetOrCreate(id)
	return err
}

// Tenants returns the IDs of the resident tenants, sorted.
func (s *Server) Tenants() []string { return s.router.IDs() }

// SetReady flips the readiness gate served by GET /v1/readyz. The graceful
// shutdown path flips it false before draining so load balancers stop
// routing new traffic while in-flight requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// CycleSummary returns the default tenant's aggregate view of the current
// cycle.
func (s *Server) CycleSummary() core.CycleSummary {
	t, ok := s.router.Get(s.defaultID)
	if !ok {
		return core.CycleSummary{}
	}
	return t.Engine.Summary()
}

// CycleSummaries returns every resident tenant's aggregate view of its
// current cycle, keyed by tenant ID — the shutdown path logs them so no
// tenant's interrupted cycle is lost silently.
func (s *Server) CycleSummaries() map[string]core.CycleSummary {
	out := make(map[string]core.CycleSummary, s.router.Len())
	s.router.Range(func(t *shard.Tenant) bool {
		out[t.ID] = t.Engine.Summary()
		return true
	})
	return out
}

// AccessRequest is the body of POST /v1/access.
type AccessRequest struct {
	EmployeeID int `json:"employee_id"`
	PatientID  int `json:"patient_id"`
	// Tenant routes the request; empty means the X-SAG-Tenant header or,
	// absent that too, the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// AccessResponse is the decision for one access request.
type AccessResponse struct {
	// Alert reports whether any detection rule fired.
	Alert bool `json:"alert"`
	// TypeID is the taxonomy type of the alert (0 when no alert).
	TypeID int `json:"type_id,omitempty"`
	// Rules describes the fired rules.
	Rules string `json:"rules,omitempty"`
	// Warn instructs the front end to show the warning dialog.
	Warn bool `json:"warn"`
	// Flagged reports that the employee previously abandoned a warned
	// access; per the paper's §4 discussion such users are always
	// investigated.
	Flagged bool `json:"flagged,omitempty"`
	// RemainingBudget is the post-decision audit budget.
	RemainingBudget float64 `json:"remaining_budget"`
	// Fallback names the degradation rung ("cache", "last_good", "static")
	// when the decision pipeline could not complete in time; empty for a
	// fully solved decision.
	Fallback string `json:"fallback,omitempty"`
}

// QuitRequest is the body of POST /v1/quit: a warned user abandoned the
// access. Quitting reveals the requester (the paper's Theorem 3 remark),
// so the server flags the employee.
type QuitRequest struct {
	EmployeeID int    `json:"employee_id"`
	Tenant     string `json:"tenant,omitempty"`
}

// CloseRequest is the (optional) body of POST /v1/cycle/close; the close
// itself needs no parameters, the body exists to carry the tenant field.
type CloseRequest struct {
	Tenant string `json:"tenant,omitempty"`
}

// CloseResponse is the retrospective audit plan.
type CloseResponse struct {
	Audits    []core.AuditOutcome `json:"audits"`
	TotalCost float64             `json:"total_cost"`
}

// NewCycleRequest starts the next audit cycle.
type NewCycleRequest struct {
	Budget float64 `json:"budget"`
	Tenant string  `json:"tenant,omitempty"`
}

// Status is the GET /v1/status snapshot for one tenant.
type Status struct {
	// Tenant is the tenant this snapshot describes; ActiveTenants counts
	// all resident tenants on the server.
	Tenant          string  `json:"tenant"`
	ActiveTenants   int     `json:"active_tenants"`
	Budget          float64 `json:"budget"`
	RemainingBudget float64 `json:"remaining_budget"`
	Accesses        int     `json:"accesses"`
	Alerts          int     `json:"alerts"`
	Warned          int     `json:"warned"`
	Quits           int     `json:"quits"`
	FlaggedUsers    int     `json:"flagged_users"`
	NumTypes        int     `json:"num_types"`
	// Closed reports that the cycle's audit plan has been drawn: further
	// /v1/access and /v1/cycle/close calls answer 409 until /v1/cycle/new.
	Closed bool `json:"closed"`
	// Decision-cache effectiveness; all zero when caching is disabled.
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheEntries   int     `json:"cache_entries"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
}

// Handler returns the HTTP handler with all routes mounted. Every route is
// wrapped in the metrics middleware (request count by status, latency
// histogram); /v1/metrics serves the shared registry. The whole API is
// wrapped in the panic-recovery middleware and, when Config.RequestTimeout
// is set, the per-request timeout — except the health probes, which must
// answer even when the API is saturated.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/access", s.instrument("/v1/access", s.handleAccess))
	mux.Handle("POST /v1/quit", s.instrument("/v1/quit", s.handleQuit))
	mux.Handle("POST /v1/cycle/close", s.instrument("/v1/cycle/close", s.handleClose))
	mux.Handle("POST /v1/cycle/new", s.instrument("/v1/cycle/new", s.handleNewCycle))
	mux.Handle("GET /v1/status", s.instrument("/v1/status", s.handleStatus))
	mux.Handle("GET /v1/cycle/summary", s.instrument("/v1/cycle/summary", s.handleCycleSummary))
	mux.Handle("POST /v1/admin/snapshot", s.instrument("/v1/admin/snapshot", s.handleSnapshot))
	mux.Handle("GET /v1/metrics", s.met.reg.Handler())

	var api http.Handler = mux
	if s.cfg.RequestTimeout > 0 {
		api = http.TimeoutHandler(api, s.cfg.RequestTimeout,
			`{"error":"request timed out"}`)
	}
	api = s.recovery(api)

	root := http.NewServeMux()
	root.Handle("GET /v1/healthz", http.HandlerFunc(s.handleHealthz))
	root.Handle("GET /v1/readyz", http.HandlerFunc(s.handleReadyz))
	// The replication stream is unbounded and must not pass through
	// http.TimeoutHandler (which buffers the whole response) or the panic
	// middleware's deferred write; promote rides alongside it so a follower
	// can be promoted even when the API wrapper is saturated.
	root.Handle("GET /v1/replicate", http.HandlerFunc(s.handleReplicate))
	root.Handle("POST /v1/admin/promote", http.HandlerFunc(s.handlePromote))
	root.Handle("/", api)
	return s.retryAfter(root)
}

// RetryAfterMsHeader carries the backoff hint in integral milliseconds.
// Retry-After itself is constrained by RFC 9110 to whole delta-seconds, so
// sub-second hints round up to "1" there; clients wanting the precise hint
// (cmd/sagload does) read this header and fall back to Retry-After.
const RetryAfterMsHeader = "X-SAG-Retry-After-Ms"

// setRetryHeaders stamps both backoff headers for one hint: Retry-After as
// RFC 9110 whole seconds, X-SAG-Retry-After-Ms as precise milliseconds.
func setRetryHeaders(h http.Header, d time.Duration) {
	h.Set("Retry-After", admit.FormatRetryAfter(d))
	h.Set(RetryAfterMsHeader, admit.FormatRetryAfterMs(d))
}

// retryAfterWriter stamps backpressure responses (429 tenant limit, 503
// draining / request timeout / standby, 507 disk pressure) with Retry-After
// and X-SAG-Retry-After-Ms hints so well-behaved clients back off instead of
// hammering. Responses that already carry Retry-After — admission sheds and
// the disk-pressure gate compute per-request hints — keep theirs; the rest
// get this writer's fallback hint, which the admission controller derives
// from the observed queue drain rate (a constant 1s only when admission
// control is disabled and the server has no drain measurements to compute
// from).
type retryAfterWriter struct {
	http.ResponseWriter
	hint func() time.Duration
}

func (w *retryAfterWriter) WriteHeader(code int) {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInsufficientStorage:
		if w.Header().Get("Retry-After") == "" {
			setRetryHeaders(w.Header(), w.hint())
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer, so the
// replication stream's per-write deadlines and flushes work through the wrap.
func (w *retryAfterWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *Server) retryAfter(h http.Handler) http.Handler {
	hint := func() time.Duration {
		if s.admit != nil {
			return s.admit.RetryHint()
		}
		return time.Second
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&retryAfterWriter{ResponseWriter: w, hint: hint}, r)
	})
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// handleReadyz is the readiness probe: 200 while accepting traffic, 503
// once graceful shutdown has begun (see SetReady). On a follower it reports
// replication catch-up instead: {"status":"following","lag_records":N},
// flipping 200 only once every tenant's lag is at or below
// Config.FollowerReadyLag.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{Status: "draining"})
		return
	}
	if s.following.Load() {
		lag, known := s.follow.Load().maxLag()
		code := http.StatusOK
		if !known || lag > int64(s.cfg.FollowerReadyLag) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, struct {
			Status     string `json:"status"`
			LagRecords int64  `json:"lag_records"`
		}{Status: "following", LagRecords: lag})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}

// rejectIfDiskPressure answers 507 + Retry-After for hot-path mutations of a
// tenant the retention compactor has blocked: the box is over its disk
// budget and this tenant's journal is all live tail, so its writes are pure
// growth. Deliberately NOT applied to /v1/cycle/close, /v1/cycle/new, or
// /v1/admin/snapshot — those are exactly how a blocked tenant's bytes become
// reclaimable again. Runs before admission control so a doomed request
// cannot consume a token or a queue slot.
func (s *Server) rejectIfDiskPressure(w http.ResponseWriter, tenant string) bool {
	if s.retain == nil {
		return false
	}
	ra, blocked := s.retain.Blocked(tenant)
	if !blocked {
		return false
	}
	setRetryHeaders(w.Header(), ra)
	writeJSON(w, http.StatusInsufficientStorage, apiError{
		Error: fmt.Sprintf("disk budget exhausted: tenant %q has no reclaimable journal bytes; close the cycle or retry later", tenant)})
	return true
}

// rejectIfFollowing answers 503 for mutations while the server is a standby;
// reads stay available so operators can inspect catch-up state.
func (s *Server) rejectIfFollowing(w http.ResponseWriter) bool {
	if !s.following.Load() {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable,
		apiError{Error: "standby follower: mutations are rejected until POST /v1/admin/promote"})
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// decodeJSON decodes a capped request body into v, answering the error
// response (400 for malformed JSON, 413 for an oversized body) itself.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid JSON: " + err.Error()})
		return false
	}
	return true
}

// decodeJSONLenient decodes a capped request body into v, tolerating a
// malformed (or absent) body — v keeps its zero value — but still answering
// 413 for an oversized one. For endpoints whose body is optional and
// historically junk-tolerant (cycle close, admin snapshot): before this
// helper their raw Decode swallowed the MaxBytesReader error too, silently
// treating an over-limit body as an empty request.
func (s *Server) decodeJSONLenient(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
	}
	return true
}

// admitRequest passes one mutation request through admission control,
// answering the 503 (with the computed Retry-After) itself on a shed.
// Returns ok=false when the response has been written; otherwise release is
// the slot-return hook to defer (nil when admission control is off or the
// tenant ID is malformed — those requests die in resolveTenant with a 400
// and must not occupy admission state).
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request, tenant string) (release func(), ok bool) {
	if s.admit == nil || !shard.ValidID(tenant) {
		return nil, true
	}
	release, err := s.admit.Admit(r.Context(), tenant)
	if err != nil {
		var shed *admit.ShedError
		if errors.As(err, &shed) {
			setRetryHeaders(w.Header(), shed.RetryAfter)
			writeJSON(w, http.StatusServiceUnavailable, apiError{
				Error: fmt.Sprintf("overloaded (%s): request shed; retry after %ss",
					shed.Reason, admit.FormatRetryAfter(shed.RetryAfter))})
		} else {
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		}
		return nil, false
	}
	return release, true
}

// SetJournalFault installs (or, with a nil p, removes) a fault point fired
// before every segment write or fsync (op) of every tenant journal. It
// exists for the journal-failure suite.
func (s *Server) SetJournalFault(op wal.FaultOp, p *faultinject.Point) {
	s.journalFault.Store(&journalFault{op: op, p: p})
}

// fireJournalFault is every tenant journal's fault hook.
func (s *Server) fireJournalFault(op wal.FaultOp) error {
	if f := s.journalFault.Load(); f != nil && f.op == op {
		return f.p.Fire()
	}
	return nil
}

// tenantID resolves the tenant a request addresses: the X-SAG-Tenant header
// wins, then the body's tenant field, then the default tenant.
func (s *Server) tenantID(r *http.Request, bodyTenant string) string {
	if h := r.Header.Get(TenantHeader); h != "" {
		return h
	}
	if bodyTenant != "" {
		return bodyTenant
	}
	return s.defaultID
}

// resolveTenant returns the serving state for id, answering the error
// response itself when it cannot: 400 for a malformed ID, 429 when
// create-on-first-use would exceed the tenant cap, 404 for an unknown
// tenant on endpoints that must not create one, 500 for a constructor
// failure.
func (s *Server) resolveTenant(w http.ResponseWriter, id string, create bool) *tenantState {
	if !shard.ValidID(id) {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: fmt.Sprintf("invalid tenant ID %q: want 1-%d chars of [A-Za-z0-9._-]", id, shard.MaxIDLength)})
		return nil
	}
	tn, ok := s.router.Get(id)
	if !ok && !create && s.durable() && s.tenantOnDisk(id) {
		// A durable tenant that was evicted (or predates this boot) is
		// unloaded, not unknown: restore it from its journal on first use,
		// even on endpoints that never create fresh tenants.
		create = true
	}
	if !ok && !create {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown tenant %q", id)})
		return nil
	}
	if !ok {
		var err error
		tn, _, err = s.router.GetOrCreate(id)
		if err != nil {
			if errors.Is(err, shard.ErrTenantLimit) {
				writeJSON(w, http.StatusTooManyRequests,
					apiError{Error: fmt.Sprintf("tenant limit reached (%d resident); tenant %q not created", s.router.Len(), id)})
				return nil
			}
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return nil
		}
	}
	t := tn.Data.(*tenantState)
	t.met.requests.Inc()
	return t
}

// resolveTenantLocked resolves id and acquires its lifecycle lock (write
// when write is set, read otherwise), retrying when the tenant was evicted
// between resolution and the lock: the sealed holder is already unlinked
// from the router, so the retry rebuilds the tenant from its journal. On
// success the caller owns the lock (RUnlock/Unlock to release); nil means
// the error response was already written. The bound exists only to turn a
// pathological eviction storm into a retryable 503 instead of a spin.
func (s *Server) resolveTenantLocked(w http.ResponseWriter, id string, create, write bool) *tenantState {
	for attempt := 0; attempt < 16; attempt++ {
		t := s.resolveTenant(w, id, create)
		if t == nil {
			return nil
		}
		if write {
			s.lockLifecycleW(t)
		} else {
			s.lockLifecycleR(t)
		}
		if !t.sealed {
			return t
		}
		if write {
			t.lifecycle.Unlock()
		} else {
			t.lifecycle.RUnlock()
		}
	}
	writeJSON(w, http.StatusServiceUnavailable,
		apiError{Error: fmt.Sprintf("tenant %q is being evicted; retry", id)})
	return nil
}

// lockLifecycleR / lockLifecycleW acquire one tenant's lifecycle lock,
// observing the wait in sag_http_lock_wait_seconds so re-serialization
// regressions show up on dashboards before they show up as latency.
func (s *Server) lockLifecycleR(t *tenantState) {
	t0 := time.Now()
	t.lifecycle.RLock()
	s.met.lockWaitRead.ObserveSince(t0)
}

func (s *Server) lockLifecycleW(t *tenantState) {
	t0 := time.Now()
	t.lifecycle.Lock()
	s.met.lockWaitWrite.ObserveSince(t0)
}

// mutate runs a mutation's body on tenant id under its lifecycle lock (the
// write side when write is set). fn writes the response unless it returns
// an error: a failed journal write or fsync, after which memory may hold
// what the journal does not, so the lock is released and unloadFailed runs.
func (s *Server) mutate(w http.ResponseWriter, id string, create, write bool, fn func(t *tenantState) error) {
	t := s.resolveTenantLocked(w, id, create, write)
	if t == nil {
		return
	}
	unlock := t.lifecycle.RUnlock
	if write {
		unlock = t.lifecycle.Unlock
	}
	err := func() error {
		defer unlock()
		return fn(t)
	}()
	if err != nil {
		s.unloadFailed(w, t, err)
	}
}

// unloadFailed unloads a durable tenant instance through the eviction path
// — whose snapshot fails on the poisoned journal, so nothing is persisted
// from memory — and then answers 500; the next request rebuilds the tenant
// from disk. An in-memory tenant has no disk to reload from and is kept.
func (s *Server) unloadFailed(w http.ResponseWriter, t *tenantState, err error) {
	if t.journal != nil && s.router.RemoveIf(t.id, t) {
		s.met.journalFailures.Inc()
		s.logf("server: tenant %s: journal failed, unloaded to reload from disk: %v", t.id, err)
	}
	writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
}

func (s *Server) handleAccess(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfFollowing(w) {
		return
	}
	var req AccessRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	id := s.tenantID(r, req.Tenant)
	if s.rejectIfDiskPressure(w, id) {
		return
	}
	// Admission control runs before any tenant state is touched: a shed
	// request costs the box one token-bucket check, not a solve.
	release, ok := s.admitRequest(w, r, id)
	if !ok {
		return
	}
	if release != nil {
		defer release()
	}
	// Read side only: any number of access decisions overlap; the solve
	// itself runs under the engine's optimistic-commit protocol, not under
	// any server lock.
	s.mutate(w, id, true, false, func(t *tenantState) error {
		if t.closed {
			writeJSON(w, http.StatusConflict, apiError{Error: "audit cycle is closed; POST /v1/cycle/new to start the next one"})
			return nil
		}
		t.met.accesses.Inc()
		now := s.cfg.Clock()
		alert, fired, err := s.detector.Evaluate(emr.AccessEvent{
			Time:       now,
			EmployeeID: req.EmployeeID,
			PatientID:  req.PatientID,
		})
		if err != nil {
			// A malformed access still counts as one: journal the bare
			// access so a recovered tenant reproduces the same counters.
			if jerr := s.commit(t, wal.Record{Kind: wal.KindMeta}); jerr != nil {
				return jerr
			}
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return nil
		}
		resp := AccessResponse{RemainingBudget: t.engine.RemainingBudget()}
		idx, gamed := 0, false
		if fired {
			t.met.alerts.Inc()
			resp.Alert = true
			resp.TypeID = alert.Type
			resp.Rules = alert.Rules.String()
			t.flaggedMu.RLock()
			resp.Flagged = t.flagged[req.EmployeeID]
			t.flaggedMu.RUnlock()
			idx, gamed = s.typeIdx[alert.Type]
		}
		if !gamed || resp.Flagged {
			// No game to play: a benign access, an unmodeled alert type
			// (logged, never warned: no payoff structure), or a known
			// quitter, who is always warned (and investigated out of band —
			// the paper notes this is cheap because quits are rare).
			resp.Warn = resp.Flagged
			if resp.Warn {
				t.met.warned.Inc()
			}
			if err := s.commit(t, wal.Record{Kind: wal.KindMeta, Meta: wal.Meta{Alerted: fired, Warned: resp.Warn}}); err != nil {
				return err
			}
			writeJSON(w, http.StatusOK, resp)
			return nil
		}
		d, err := t.engine.ProcessContext(r.Context(), core.Alert{Type: idx, Time: now})
		if errors.Is(err, core.ErrCycleRolledOver) {
			// Nothing committed. Cannot fire under the lifecycle read lock,
			// but embedders drive the engine directly too.
			writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
			return nil
		}
		if err != nil {
			return err
		}
		// The engine journaled the decision; count it as applyRecord does.
		t.count(wal.Meta{Alerted: true, Warned: d.Warned})
		resp.Warn = d.Warned
		resp.RemainingBudget = d.BudgetAfter
		if d.Fallback.Degraded() {
			resp.Fallback = d.Fallback.String()
		}
		if d.Warned {
			t.met.warned.Inc()
		}
		writeJSON(w, http.StatusOK, resp)
		return nil
	})
}

func (s *Server) handleQuit(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfFollowing(w) {
		return
	}
	var req QuitRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	id := s.tenantID(r, req.Tenant)
	if s.rejectIfDiskPressure(w, id) {
		return
	}
	release, ok := s.admitRequest(w, r, id)
	if !ok {
		return
	}
	if release != nil {
		defer release()
	}
	s.mutate(w, id, true, false, func(t *tenantState) error {
		if req.EmployeeID < 0 || req.EmployeeID >= len(s.cfg.World.Employees) {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("unknown employee %d", req.EmployeeID)})
			return nil
		}
		// Idempotent: a quit reveals the requester once. Repeats (front
		// ends retry) need no record; two racing first reports both journal
		// one, and applyRecord counts the second as a repeat, live and on
		// replay alike.
		t.flaggedMu.RLock()
		flagged := t.flagged[req.EmployeeID]
		t.flaggedMu.RUnlock()
		if !flagged {
			if err := s.commit(t, wal.Record{Kind: wal.KindQuit, Employee: req.EmployeeID}); err != nil {
				return err
			}
			t.met.quits.Inc()
		}
		writeJSON(w, http.StatusOK, struct {
			Flagged bool `json:"flagged"`
		}{Flagged: true})
		return nil
	})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfFollowing(w) {
		return
	}
	// The close itself takes no parameters; the body is decoded only for
	// its optional tenant field and malformed bodies are deliberately
	// tolerated (callers historically POST empty or junk bodies here) —
	// but an oversized body is still a hard 413, not an empty request.
	var req CloseRequest
	if !s.decodeJSONLenient(w, r, &req) {
		return
	}
	// Closing must not create: an unknown tenant has no cycle to close.
	// Write side: wait for this tenant's in-flight decisions, then freeze
	// the cycle. A second close is a conflict — re-sampling would draw a
	// fresh audit plan (and re-charge its total) for a cycle that already
	// has one.
	s.mutate(w, s.tenantID(r, req.Tenant), false, true, func(t *tenantState) error {
		if t.closed {
			writeJSON(w, http.StatusConflict, apiError{Error: "audit cycle already closed; POST /v1/cycle/new to start the next one"})
			return nil
		}
		// Durable before acknowledged: if the record is lost to a crash the
		// client never saw the plan, recovery reopens the cycle, and a
		// retried close re-derives the identical plan (same access count →
		// same seed).
		if err := s.commit(t, wal.Record{Kind: wal.KindCycleClose}); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(s.cfg.Seed ^ t.seedOffset ^ t.accesses.Load()))
		audits, total := t.engine.CloseCycle(rng)
		writeJSON(w, http.StatusOK, CloseResponse{Audits: audits, TotalCost: total})
		return nil
	})
}

func (s *Server) handleNewCycle(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfFollowing(w) {
		return
	}
	var req NewCycleRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	s.mutate(w, s.tenantID(r, req.Tenant), true, true, func(t *tenantState) error {
		if err := core.ValidateBudget(req.Budget); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return nil
		}
		// applyRecord rolls the engine over and resets every per-cycle
		// counter. Flagged users deliberately survive the rollover: a quit
		// reveals the requester for good (paper §4).
		if err := s.commit(t, wal.Record{Kind: wal.KindCycleOpen, Budget: req.Budget}); err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, struct {
			Budget float64 `json:"budget"`
		}{Budget: req.Budget})
		return nil
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	// GET carries no body; the query parameter stands in for it.
	t := s.resolveTenantLocked(w, s.tenantID(r, r.URL.Query().Get("tenant")), false, false)
	if t == nil {
		return
	}
	closed := t.closed
	t.lifecycle.RUnlock()
	t.flaggedMu.RLock()
	flagged := len(t.flagged)
	t.flaggedMu.RUnlock()
	cs := t.engine.CacheStats()
	writeJSON(w, http.StatusOK, Status{
		Tenant:          t.id,
		ActiveTenants:   s.router.Len(),
		Budget:          t.engine.InitialBudget(),
		RemainingBudget: t.engine.RemainingBudget(),
		Accesses:        int(t.accesses.Load()),
		Alerts:          int(t.alerts.Load()),
		Warned:          int(t.warned.Load()),
		Quits:           int(t.quits.Load()),
		FlaggedUsers:    flagged,
		NumTypes:        s.cfg.Instance.NumTypes(),
		Closed:          closed,
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		CacheEvictions:  cs.Evictions,
		CacheEntries:    cs.Entries,
		CacheHitRate:    cs.HitRate(),
	})
}
