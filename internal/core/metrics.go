package core

import (
	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/obs"
)

// Engine metric names, exported so operators and tests share one spelling.
const (
	// MetricStageSeconds is a histogram of per-stage decision latency,
	// labeled stage=estimate|sse|signal.
	MetricStageSeconds = "sag_engine_stage_seconds"
	// MetricDecisionSeconds is a histogram of whole-decision latency
	// (all stages of one Process call).
	MetricDecisionSeconds = "sag_engine_decision_seconds"
	// MetricDecisionsTotal counts committed decisions, labeled by policy.
	MetricDecisionsTotal = "sag_engine_decisions_total"
	// MetricVacuousTotal counts decisions where no type was attackable.
	MetricVacuousTotal = "sag_engine_vacuous_total"
	// MetricTheorem3FallbackTotal counts alerts whose payoffs violated the
	// Theorem 3 condition, forcing the general LP (3) signaling solver.
	MetricTheorem3FallbackTotal = "sag_engine_theorem3_fallback_total"
	// MetricBudgetRemaining is a gauge of the cycle's remaining budget.
	MetricBudgetRemaining = "sag_engine_budget_remaining"
	// MetricLPSolvesTotal counts candidate LPs solved by the SSE stage.
	MetricLPSolvesTotal = "sag_engine_lp_solves_total"
	// MetricSimplexIterationsTotal counts simplex iterations across those
	// LPs; MetricSimplexPivotsTotal counts tableau pivots (iterations plus
	// phase-transition drive-out pivots).
	MetricSimplexIterationsTotal = "sag_engine_simplex_iterations_total"
	MetricSimplexPivotsTotal     = "sag_engine_simplex_pivots_total"
	// MetricCacheHitsTotal / MetricCacheMissesTotal count decision-cache
	// lookups that were served from / missed the cache;
	// MetricCacheEvictionsTotal counts LRU evictions at capacity.
	MetricCacheHitsTotal      = "sag_engine_cache_hits_total"
	MetricCacheMissesTotal    = "sag_engine_cache_misses_total"
	MetricCacheEvictionsTotal = "sag_engine_cache_evictions_total"
	// MetricCacheEntries is a gauge of the decision cache's current size.
	MetricCacheEntries = "sag_engine_cache_entries"
	// MetricFallbackTotal counts degraded decisions, labeled by the ladder
	// rung that produced them (level=cache|last_good|static).
	MetricFallbackTotal = "sag_engine_fallback_total"
	// MetricDeadlineExceededTotal counts decisions whose primary pipeline
	// was cut off by the per-decision deadline.
	MetricDeadlineExceededTotal = "sag_engine_deadline_exceeded_total"
	// MetricCommitRetriesTotal counts optimistic commits that re-solved
	// because concurrent decisions moved the budget out of the snapshot's
	// quantization bucket.
	MetricCommitRetriesTotal = "sag_engine_commit_retries_total"
	// MetricStaleCommitsTotal counts decisions committed from a stale
	// budget snapshot after exhausting the commit-retry bound.
	MetricStaleCommitsTotal = "sag_engine_stale_commits_total"
	// MetricInflightSolves is a gauge of decision pipelines currently inside
	// the SSE/signaling solve (past the decision cache).
	MetricInflightSolves = "sag_engine_inflight_solves"
)

// engineMetrics holds the engine's pre-resolved instruments. The zero value
// (enabled=false, all instruments nil) disables collection: every record
// call is a nil-receiver no-op and the hot path skips its time.Now() calls.
type engineMetrics struct {
	enabled        bool
	stageEstimate  *obs.Histogram
	stageSSE       *obs.Histogram
	stageSignal    *obs.Histogram
	decision       *obs.Histogram
	decisions      *obs.Counter
	vacuous        *obs.Counter
	fallback       *obs.Counter
	budget         *obs.Gauge
	lpSolves       *obs.Counter
	simplexIters   *obs.Counter
	simplexPivots  *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheEntries   *obs.Gauge

	fallbackCache    *obs.Counter
	fallbackLastGood *obs.Counter
	fallbackStatic   *obs.Counter
	deadlineExceeded *obs.Counter

	commitRetries  *obs.Counter
	staleCommits   *obs.Counter
	inflightSolves *obs.Gauge
}

// fallbackCounter maps a degraded level to its labeled counter (nil, hence a
// no-op, for fallback.None or when metrics are disabled).
func (m *engineMetrics) fallbackCounter(lvl fallback.Level) *obs.Counter {
	switch lvl {
	case fallback.Cache:
		return m.fallbackCache
	case fallback.LastGood:
		return m.fallbackLastGood
	case fallback.Static:
		return m.fallbackStatic
	default:
		return nil
	}
}

// newEngineMetrics resolves the engine's instruments in reg. The variadic
// extra labels (Config.MetricLabels) are stamped on every series — a
// multi-tenant deployment passes tenant="<id>" so each tenant engine exports
// its own series family in one shared registry; with no extras the series
// names are exactly the unlabeled single-tenant ones.
func newEngineMetrics(reg *obs.Registry, policy Policy, extra ...obs.Label) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	// with builds a fresh label slice per instrument: appending to the shared
	// extra slice directly could alias one backing array across instruments.
	with := func(ls ...obs.Label) []obs.Label {
		out := make([]obs.Label, 0, len(extra)+len(ls))
		out = append(out, extra...)
		return append(out, ls...)
	}
	const stageHelp = "Per-stage SAG decision latency in seconds."
	return engineMetrics{
		enabled:        true,
		stageEstimate:  reg.Histogram(MetricStageSeconds, stageHelp, obs.DefTimeBuckets, with(obs.L("stage", "estimate"))...),
		stageSSE:       reg.Histogram(MetricStageSeconds, stageHelp, obs.DefTimeBuckets, with(obs.L("stage", "sse"))...),
		stageSignal:    reg.Histogram(MetricStageSeconds, stageHelp, obs.DefTimeBuckets, with(obs.L("stage", "signal"))...),
		decision:       reg.Histogram(MetricDecisionSeconds, "Whole-decision SAG latency in seconds.", obs.DefTimeBuckets, with()...),
		decisions:      reg.Counter(MetricDecisionsTotal, "Committed engine decisions.", with(obs.L("policy", policy.String()))...),
		vacuous:        reg.Counter(MetricVacuousTotal, "Decisions where no alert type was attackable.", with()...),
		fallback:       reg.Counter(MetricTheorem3FallbackTotal, "Alerts solved via LP (3) because the Theorem 3 closed form did not apply.", with()...),
		budget:         reg.Gauge(MetricBudgetRemaining, "Remaining audit budget for the current cycle.", with()...),
		lpSolves:       reg.Counter(MetricLPSolvesTotal, "Candidate LPs solved by the online SSE stage.", with()...),
		simplexIters:   reg.Counter(MetricSimplexIterationsTotal, "Simplex iterations across all candidate LPs.", with()...),
		simplexPivots:  reg.Counter(MetricSimplexPivotsTotal, "Simplex tableau pivots across all candidate LPs.", with()...),
		cacheHits:      reg.Counter(MetricCacheHitsTotal, "Decision-cache lookups served from the cache.", with()...),
		cacheMisses:    reg.Counter(MetricCacheMissesTotal, "Decision-cache lookups that missed and re-solved.", with()...),
		cacheEvictions: reg.Counter(MetricCacheEvictionsTotal, "Decision-cache LRU evictions at capacity.", with()...),
		cacheEntries:   reg.Gauge(MetricCacheEntries, "Current decision-cache entry count.", with()...),

		fallbackCache:    reg.Counter(MetricFallbackTotal, fallbackHelp, with(obs.L("level", fallback.Cache.String()))...),
		fallbackLastGood: reg.Counter(MetricFallbackTotal, fallbackHelp, with(obs.L("level", fallback.LastGood.String()))...),
		fallbackStatic:   reg.Counter(MetricFallbackTotal, fallbackHelp, with(obs.L("level", fallback.Static.String()))...),
		deadlineExceeded: reg.Counter(MetricDeadlineExceededTotal, "Decisions cut off by the per-decision deadline.", with()...),

		commitRetries:  reg.Counter(MetricCommitRetriesTotal, "Optimistic commits that re-solved at a fresh budget.", with()...),
		staleCommits:   reg.Counter(MetricStaleCommitsTotal, "Decisions committed from a stale budget snapshot after retry exhaustion.", with()...),
		inflightSolves: reg.Gauge(MetricInflightSolves, "Decision pipelines currently inside the SSE/signaling solve.", with()...),
	}
}

const fallbackHelp = "Degraded decisions by fallback ladder rung."

// recordSSE charges one SSE solve's LP effort to the counters.
func (m *engineMetrics) recordSSE(stats game.SolveStats) {
	if !m.enabled {
		return
	}
	m.lpSolves.Add(uint64(stats.LPSolves))
	m.simplexIters.Add(uint64(stats.Simplex.Iterations()))
	m.simplexPivots.Add(uint64(stats.Simplex.Pivots))
}
