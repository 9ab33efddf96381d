// Package core implements the paper's primary contribution: the online
// Signaling Audit Game engine.
//
// The engine processes a stream of triggered alerts within one audit cycle.
// For each alert it runs the full SAG pipeline in real time:
//
//  1. estimate the Poisson-distributed number of future alerts per type
//     (pluggable Estimator; production code uses internal/history, which
//     also implements the paper's "knowledge rollback" trick),
//  2. solve the online SSE (LP (2), internal/game) for the remaining budget
//     to obtain the marginal audit probabilities θ,
//  3. plug θ of the alert's type into the optimal signaling program (LP (3),
//     internal/signaling) to obtain the OSSP joint warn/audit scheme,
//  4. sample the signal (warn or stay silent) and charge the remaining
//     budget with the signal-conditional audit probability × audit cost,
//
// and records everything in a Decision for downstream evaluation. A
// non-signaling mode (PolicySSE) reproduces the paper's "online SSE"
// baseline under identical budget dynamics.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/signaling"
)

// Alert is one triggered alert as seen by the engine: its type (index into
// the game instance) and its arrival offset within the audit cycle.
type Alert struct {
	Type int
	Time time.Duration
}

// Estimator supplies the engine's belief about future alert volumes: the
// expected number of alerts of each type arriving strictly after the given
// cycle offset. Implementations may incorporate the paper's knowledge
// rollback; the engine treats the returned rates as Poisson means (§3.1).
type Estimator interface {
	FutureRates(at time.Duration) ([]float64, error)
}

// EstimatorFunc adapts a plain function to the Estimator interface.
type EstimatorFunc func(at time.Duration) ([]float64, error)

// FutureRates implements Estimator.
func (f EstimatorFunc) FutureRates(at time.Duration) ([]float64, error) { return f(at) }

// SSESolveFunc is the signature of the online SSE solver the engine invokes
// once per decision. It exists as an injection seam: internal/faultinject
// wraps it to inject solver errors, latency, and panics, and tests can
// substitute canned results. The default is game.SolveOnlineSSECtx.
type SSESolveFunc func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error)

// Policy selects the engine's auditing policy.
type Policy int

const (
	// PolicyOSSP is the paper's contribution: optimal online signaling on
	// top of the online SSE marginals.
	PolicyOSSP Policy = iota
	// PolicySSE is the non-signaling baseline: commit to the online SSE
	// marginal audit probability for each alert.
	PolicySSE
)

// String returns a human-readable policy name.
func (p Policy) String() string {
	switch p {
	case PolicyOSSP:
		return "OSSP"
	case PolicySSE:
		return "online-SSE"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config assembles an Engine.
type Config struct {
	// Instance is the audit game (payoffs + audit costs per type).
	Instance *game.Instance
	// Budget is the total audit budget for the cycle.
	Budget float64
	// Estimator supplies future alert volumes; required.
	Estimator Estimator
	// Policy selects OSSP (default) or the SSE baseline.
	Policy Policy
	// Rand drives signal sampling. Required for PolicyOSSP so runs are
	// reproducible; the engine never falls back to global randomness.
	Rand *rand.Rand
	// UseLPSignaling forces the general LP (3) solver even when the closed
	// form applies; used by the ablation benches and as a cross-check.
	UseLPSignaling bool
	// Metrics, when non-nil, receives the engine's instrumentation:
	// per-stage solve latencies, vacuous-game and Theorem-3-fallback
	// counters, simplex effort, and the remaining-budget gauge (see the
	// Metric* constants). A nil registry disables collection with
	// near-zero overhead.
	Metrics *obs.Registry
	// MetricLabels are extra labels stamped on every engine instrument —
	// the multi-tenant server passes tenant="<id>" so each tenant's engine
	// exports its own series in the shared registry. Empty (the default)
	// keeps the unlabeled series names of a single-tenant deployment.
	MetricLabels []obs.Label
	// Cache enables the per-cycle decision cache: decide() results are
	// memoized on (alert type, quantized remaining budget, quantized
	// future-rate vector) so repeated game states skip the LP pipeline.
	// The zero value disables caching. See CacheConfig for the exactness
	// trade-off of the quanta.
	Cache CacheConfig
	// AttackerTypes, when non-empty, switches the signaling stage to the
	// Bayesian SAG: the attacker's covered/uncovered utilities are private,
	// drawn from this prior (see signaling.SolveBayesian). The Stackelberg
	// marginals θ are still computed from the instance's nominal payoffs —
	// the commitment the paper's LP (2) produces — with the Bayesian layer
	// optimizing the warn/audit split per alert against the prior.
	AttackerTypes []signaling.AttackerType
	// DecisionDeadline bounds each Process call: the context handed to the
	// estimator check, the SSE solve, and the signaling solve expires after
	// this duration. Zero means no per-decision deadline. A deadline
	// without Fallback turns slow solves into errors; with Fallback they
	// become degraded decisions.
	DecisionDeadline time.Duration
	// Fallback enables graceful degradation: when the decision pipeline
	// fails (estimator error, solver error or panic, deadline exceeded),
	// Process descends the ladder in internal/fallback — cached decision →
	// last-good θ → static conservative policy — instead of returning an
	// error. Every degraded decision is tagged with its fallback.Level and
	// counted in sag_engine_fallback_total. Alerts that are invalid per se
	// (type out of range) still error: no ladder rung can define a payoff
	// for a type the game does not have.
	Fallback bool
	// SSESolve overrides the online SSE solver (nil means
	// game.SolveOnlineSSECtx). This is the injection seam used by
	// internal/faultinject and by solver-substitution tests.
	SSESolve SSESolveFunc
	// Journal, when non-nil, receives the durable form of every committed
	// decision, invoked under the budget lock in commit order; the returned
	// wait (if any) is awaited before ProcessContext returns. See
	// JournalFunc for the contract. Nil disables journaling.
	Journal JournalFunc
}

// Decision records everything the engine did for one alert.
type Decision struct {
	Alert        Alert
	BudgetBefore float64
	BudgetAfter  float64

	// SSE is the online Stackelberg equilibrium solved at this alert.
	SSE *game.Result
	// Theta is the marginal audit probability of this alert's own type
	// under the SSE commitment (θ^t_SSE = θ^t_SAG by Theorem 1).
	Theta float64

	// Scheme is the OSSP joint distribution (zero value under PolicySSE).
	Scheme signaling.Scheme
	// Warned reports whether the sampled signal was the warning ξ1
	// (always false under PolicySSE, which never warns).
	Warned bool
	// AuditCharge is the signal-conditional audit probability charged
	// against the budget (times the type's audit cost).
	AuditCharge float64

	// SSEUtility is the auditor's expected utility for this alert without
	// signaling. It is the optimal objective of LP (2) whenever the
	// attacker participates; when the SSE coverage alone already deters the
	// attack (his best-response utility is negative) it is 0, following the
	// participation accounting of the paper's Theorem 2 proof. In the
	// paper's evaluation regime (thin coverage, attacker utility positive)
	// the two notions coincide.
	SSEUtility float64
	// OSSPUtility is the auditor's expected utility with signaling — the
	// optimal objective of LP (3) when the SAG applies to this alert, and
	// SSEUtility otherwise (the paper's multi-type comparison protocol).
	OSSPUtility float64
	// AppliedSAG reports whether this alert's type was the attacker's
	// best-response type, i.e. whether the signaling scheme was actually
	// engaged for this alert.
	AppliedSAG bool
	// Vacuous reports that no type was attackable (all estimated future
	// rates zero), making the game degenerate for this alert.
	Vacuous bool
	// Fallback records how this decision was produced: fallback.None for
	// the primary pipeline, or the ladder rung (Cache, LastGood, Static)
	// that answered after the pipeline failed. See Config.Fallback.
	Fallback fallback.Level
}

// Engine executes one audit cycle online.
//
// Concurrency contract: every exported method is safe for concurrent use,
// and — unlike earlier revisions, which held one mutex across the whole
// decision — the expensive pipeline (estimation, the SSE multiple-LP solve,
// the signaling program) runs OUTSIDE the engine's budget lock. Process is
// optimistic: it snapshots the remaining budget, solves at that snapshot
// concurrently with other decisions, and commits under the lock only if the
// budget is still in the same (cache-quantized) bucket; otherwise it
// re-solves, accepting a near-state solve after a bounded number of retries
// (the same staleness the decision cache's quantization and the last-good
// fallback rung already embrace). A NewCycle racing a decision bumps the
// cycle epoch and the decision fails with ErrCycleRolledOver instead of
// charging the new cycle's budget.
//
// Single-threaded callers observe exactly the sequential semantics: with no
// concurrent Process call the snapshot always matches the commit state, so
// results (including the RNG stream) are bit-identical to the serialized
// engine. Decisions remain order-dependent through the remaining budget, so
// callers that need a *specific* interleaving (the simulation harness
// replaying a recorded day, for example) must still serialize externally.
// The slice returned by Decisions is owned by the engine and must not be
// read concurrently with Process/NewCycle calls.
//
// Durability: a commit is never undone. When the journal hook fails, the
// engine must be rebuilt from its journal (see JournalFunc).
//
// Lock hierarchy (acquire top to bottom, never upward):
//
//	mu     — budget chain: budget, initial, cycle, decisions, rng,
//	         lastSSE/lastRates, and every commit
//	cache  — the decision cache's own mutex (self-locking; reached both
//	         with and without mu held)
//	estMu  — serializes the (possibly stateful) estimator
type Engine struct {
	mu        sync.Mutex
	estMu     sync.Mutex
	inst      *game.Instance
	est       Estimator
	policy    Policy
	rng       *rand.Rand
	useLP     bool
	bayes     []signaling.AttackerType
	deadline  time.Duration
	degrade   bool
	sseSolve  SSESolveFunc
	journal   JournalFunc
	budget    float64
	initial   float64
	cycle     uint64 // epoch, bumped by NewCycle; guarded by mu
	rngDraws  uint64 // signal-sampling draws consumed; guarded by mu
	decisions []Decision
	cache     *decisionCache
	// lastSSE / lastRates feed the degraded rungs: the most recent
	// successfully solved equilibrium (for the last-good-θ rung) and the
	// most recent successful future-rate estimate (for the static rung's
	// expected-remaining-cost). Both reset on NewCycle — a new cycle's
	// budget makes the old θ stale, and degrading from genuinely no
	// information is exactly what the static rung is for.
	lastSSE   *game.Result
	lastRates []float64
	met       engineMetrics
}

// ErrCycleRolledOver reports that NewCycle reset the engine between a
// decision's budget snapshot and its commit: the solve answered the previous
// cycle's game, so committing it would charge the new cycle's budget for an
// alert that belongs to the old one. Callers (the HTTP server) surface it as
// a conflict; the alert can be resubmitted against the new cycle.
var ErrCycleRolledOver = errors.New("core: audit cycle rolled over during decision")

// maxCommitRetries bounds how many times a decision re-solves because
// concurrent commits moved the budget out of the solved bucket. Past the
// bound the near-state solve is committed anyway (counted in
// sag_engine_stale_commits_total) so sustained contention degrades to
// bounded staleness instead of livelock.
const maxCommitRetries = 2

// NewEngine validates cfg and returns a ready Engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Instance == nil {
		return nil, errors.New("core: Config.Instance is required")
	}
	if cfg.Estimator == nil {
		return nil, errors.New("core: Config.Estimator is required")
	}
	if err := ValidateBudget(cfg.Budget); err != nil {
		return nil, err
	}
	if cfg.Policy != PolicyOSSP && cfg.Policy != PolicySSE {
		return nil, fmt.Errorf("core: unknown policy %d", cfg.Policy)
	}
	if cfg.Policy == PolicyOSSP && cfg.Rand == nil {
		return nil, errors.New("core: Config.Rand is required for PolicyOSSP (signal sampling)")
	}
	if err := cfg.Cache.validate(); err != nil {
		return nil, err
	}
	if cfg.DecisionDeadline < 0 {
		return nil, fmt.Errorf("core: negative decision deadline %v", cfg.DecisionDeadline)
	}
	solve := cfg.SSESolve
	if solve == nil {
		solve = game.SolveOnlineSSECtx
	}
	e := &Engine{
		inst:     cfg.Instance,
		est:      cfg.Estimator,
		policy:   cfg.Policy,
		rng:      cfg.Rand,
		useLP:    cfg.UseLPSignaling,
		bayes:    append([]signaling.AttackerType(nil), cfg.AttackerTypes...),
		deadline: cfg.DecisionDeadline,
		degrade:  cfg.Fallback,
		sseSolve: solve,
		journal:  cfg.Journal,
		budget:   cfg.Budget,
		initial:  cfg.Budget,
		met:      newEngineMetrics(cfg.Metrics, cfg.Policy, cfg.MetricLabels...),
	}
	if cfg.Cache.Size > 0 {
		e.cache = newDecisionCache(cfg.Cache)
	}
	e.met.budget.Set(e.budget)
	return e, nil
}

// RemainingBudget returns the budget left for the rest of the cycle.
func (e *Engine) RemainingBudget() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.budget
}

// ValidateBudget reports whether b is usable as a cycle budget — the exact
// precondition NewCycle (and NewEngine) enforce. Callers that must know a
// later NewCycle cannot fail (the server journals the cycle-open record
// before rolling the engine over) validate with this first.
func ValidateBudget(b float64) error {
	if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return fmt.Errorf("core: invalid budget %g", b)
	}
	return nil
}

// NewCycle resets the engine for the next audit cycle: the budget is
// restored to the given value, recorded decisions are cleared, and any
// rollback state in the estimator is reset (when the estimator exposes a
// Reset method). The game instance, estimator, policy, and RNG stream are
// kept, so one Engine can process a whole sequence of audit days.
func (e *Engine) NewCycle(budget float64) error {
	if err := ValidateBudget(budget); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cycle++ // invalidate in-flight decisions: they solved the old cycle's game
	e.budget = budget
	e.initial = budget
	e.decisions = e.decisions[:0]
	e.lastSSE = nil
	e.lastRates = nil
	if e.cache != nil {
		e.cache.clear()
		e.met.cacheEntries.Set(0)
	}
	e.met.budget.Set(budget)
	if r, ok := e.est.(interface{ Reset() }); ok {
		r.Reset()
	}
	return nil
}

// InitialBudget returns the budget the cycle started with.
func (e *Engine) InitialBudget() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.initial
}

// Decisions returns the decisions recorded so far, in arrival order. The
// returned slice is owned by the engine; callers must not mutate it, and
// must not read it concurrently with Process or NewCycle calls.
func (e *Engine) Decisions() []Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.decisions
}

// Process handles one arriving alert: solves the games, samples the signal
// (under PolicyOSSP), charges the budget, and appends + returns the
// Decision. It is Process(context.Background(), ·); see ProcessContext.
func (e *Engine) Process(a Alert) (*Decision, error) {
	return e.ProcessContext(context.Background(), a)
}

// ProcessContext is Process bounded by ctx plus the engine's configured
// DecisionDeadline (whichever expires first). When graceful degradation is
// enabled (Config.Fallback), any pipeline failure — estimator error, solver
// error or panic, expired deadline — is converted into a degraded decision
// via the internal/fallback ladder, so the only errors ProcessContext can
// return are structurally invalid alerts (type out of range) and
// ErrCycleRolledOver (a NewCycle raced the decision). Without Fallback,
// pipeline errors propagate exactly as before.
//
// Budget accounting is identical on every path: the budget is charged
// exactly once, at commit, from the decision's signal-conditional audit
// probability — a degraded decision can never double-charge.
//
// The solve runs outside e.mu (see the Engine doc comment for the
// optimistic snapshot/commit protocol); only the commit — signal sampling,
// budget charge, decision append — is serialized.
func (e *Engine) ProcessContext(ctx context.Context, a Alert) (*Decision, error) {
	var t0 time.Time
	if e.met.enabled {
		t0 = time.Now()
	}
	if a.Type < 0 || a.Type >= e.inst.NumTypes() {
		return nil, fmt.Errorf("core: alert type %d out of range [0,%d)", a.Type, e.inst.NumTypes())
	}
	if e.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.deadline)
		defer cancel()
	}
	for attempt := 0; ; attempt++ {
		e.mu.Lock()
		budget, cycle := e.budget, e.cycle
		e.mu.Unlock()

		d, err := fallback.Attempt(func() (*Decision, error) { return e.decideAt(ctx, a, budget) })

		e.mu.Lock()
		if e.cycle != cycle {
			// NewCycle reset the engine while we were solving: the decision
			// answers the previous cycle's game and must not charge this one.
			e.mu.Unlock()
			return nil, fmt.Errorf("%w (alert type %d)", ErrCycleRolledOver, a.Type)
		}
		if err != nil {
			if !e.degrade {
				e.mu.Unlock()
				return nil, err
			}
			if errors.Is(err, context.DeadlineExceeded) {
				e.met.deadlineExceeded.Inc()
			}
			d = e.degraded(a)
			e.met.fallbackCounter(d.Fallback).Inc()
		} else if !e.sameBudgetBucket(budget) {
			// Concurrent commits moved the budget out of the snapshot's
			// bucket, so the solve answers a state the engine has left.
			// Re-solve at the fresh budget a bounded number of times, then
			// accept the near-state solve — the same staleness the cache's
			// quantization and the last-good rung already embrace.
			if attempt < maxCommitRetries {
				e.mu.Unlock()
				e.met.commitRetries.Inc()
				continue
			}
			e.met.staleCommits.Inc()
		}
		// Commit: sample the signal and charge the budget.
		d.BudgetBefore = e.budget
		V := e.inst.AuditCosts[a.Type]
		switch e.policy {
		case PolicyOSSP:
			d.Warned = e.rng.Float64() < d.Scheme.WarnProbability()
			e.rngDraws++
			if d.Warned {
				d.AuditCharge = d.Scheme.AuditGivenWarn()
			} else {
				d.AuditCharge = d.Scheme.AuditGivenSilent()
			}
		case PolicySSE:
			d.AuditCharge = d.Theta
		}
		d.BudgetAfter = math.Max(0, e.budget-d.AuditCharge*V)
		e.budget = d.BudgetAfter
		e.decisions = append(e.decisions, *d)
		// Enqueue the journal record while still holding mu, so journal
		// order is commit order; the group-commit wait runs after unlock.
		var wait func() error
		var journalErr error
		if e.journal != nil {
			wait, journalErr = e.journal(e.recordLocked(d))
		}
		if e.met.enabled {
			e.met.decision.ObserveSince(t0)
			e.met.decisions.Inc()
			e.met.budget.Set(e.budget)
		}
		e.mu.Unlock()
		if journalErr == nil && wait != nil {
			journalErr = wait()
		}
		if journalErr != nil {
			// Committed in memory, maybe not on disk: see JournalFunc.
			return nil, fmt.Errorf("core: journaling decision: %w", journalErr)
		}
		return d, nil
	}
}

// sameBudgetBucket reports whether the current budget still falls in the
// same quantization bucket as the snapshot a solve ran at. The bucket width
// is the decision cache's budget quantum — the identity the cache already
// uses — or exact bit equality when caching is disabled. The caller holds
// e.mu.
func (e *Engine) sameBudgetBucket(snapshot float64) bool {
	q := 0.0
	if e.cache != nil {
		q = e.cache.cfg.BudgetQuantum
	}
	return quantize(e.budget, q) == quantize(snapshot, q)
}

// Preview computes the decision the engine would take for a hypothetical
// alert without sampling a signal or mutating the budget chain. Used by the
// adaptive-attacker example and by tests. Preview never degrades and
// applies no deadline: it reports what the primary pipeline would do.
func (e *Engine) Preview(a Alert) (*Decision, error) {
	if a.Type < 0 || a.Type >= e.inst.NumTypes() {
		return nil, fmt.Errorf("core: alert type %d out of range [0,%d)", a.Type, e.inst.NumTypes())
	}
	e.mu.Lock()
	budget := e.budget
	e.mu.Unlock()
	return e.decideAt(context.Background(), a, budget)
}

// decideAt runs the decision pipeline for a at the given budget snapshot,
// holding no engine-wide lock: estimate, cache lookup, then the solve. The
// caller has validated a.Type and commits (or discards) the result.
func (e *Engine) decideAt(ctx context.Context, a Alert, budget float64) (*Decision, error) {
	rates, futures, err := e.estimate(a.Time)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: decision deadline: %w", err)
	}
	if e.cache == nil {
		return e.solveAt(ctx, a, budget, futures)
	}

	// The whole remaining pipeline is a pure function of (type, budget,
	// rates) — alert time enters only through the rates — so a cached
	// decision at the same (quantized) state stands in for a fresh solve.
	key := e.cache.key(a.Type, budget, rates)
	if hit, ok := e.cache.get(key); ok {
		e.met.cacheHits.Inc()
		hit.Alert = a
		hit.BudgetBefore = budget
		hit.BudgetAfter = budget
		return &hit, nil
	}
	e.met.cacheMisses.Inc()
	d, err := e.solveAt(ctx, a, budget, futures)
	if err != nil {
		return nil, err
	}
	e.memoize(key, d)
	return d, nil
}

// estimate queries the estimator for the expected future alert volumes at
// the given cycle offset and validates them into Poisson futures.
// Estimators may be stateful (the paper's knowledge rollback), so calls
// serialize on their own mutex — estimation is microseconds, and keeping it
// off the budget lock lets it overlap with commits and solves.
func (e *Engine) estimate(at time.Duration) ([]float64, []dist.Poisson, error) {
	var t0 time.Time
	if e.met.enabled {
		t0 = time.Now()
	}
	e.estMu.Lock()
	rates, err := e.est.FutureRates(at)
	e.estMu.Unlock()
	if err != nil {
		return nil, nil, fmt.Errorf("core: estimating future alerts: %w", err)
	}
	if len(rates) != e.inst.NumTypes() {
		return nil, nil, fmt.Errorf("core: estimator returned %d rates for %d types", len(rates), e.inst.NumTypes())
	}
	futures := make([]dist.Poisson, len(rates))
	for i, r := range rates {
		p, err := dist.NewPoisson(r)
		if err != nil {
			return nil, nil, fmt.Errorf("core: type %d: %w", i, err)
		}
		futures[i] = p
	}
	e.mu.Lock()
	e.lastRates = append(e.lastRates[:0], rates...)
	e.mu.Unlock()
	if e.met.enabled {
		e.met.stageEstimate.ObserveSince(t0)
	}
	return rates, futures, nil
}

// solveAt runs the SSE + OSSP pipeline for one alert at the given budget
// snapshot, producing a pre-commit decision. It holds no engine-wide lock:
// the solve is a pure function of (type, budget, futures), and the shared
// last-good state is updated under short critical sections.
func (e *Engine) solveAt(ctx context.Context, a Alert, budget float64, futures []dist.Poisson) (*Decision, error) {
	e.met.inflightSolves.Add(1)
	defer e.met.inflightSolves.Add(-1)
	var t0 time.Time
	if e.met.enabled {
		t0 = time.Now()
	}
	sse, err := e.sseSolve(ctx, e.inst, budget, futures)
	if err != nil {
		return nil, fmt.Errorf("core: online SSE: %w", err)
	}
	e.mu.Lock()
	e.lastSSE = sse
	e.mu.Unlock()
	if e.met.enabled {
		e.met.stageSSE.ObserveSince(t0)
		e.met.recordSSE(sse.Stats)
	}

	d := &Decision{
		Alert:        a,
		BudgetBefore: budget,
		BudgetAfter:  budget,
		SSE:          sse,
	}
	if sse.BestType == -1 {
		// Degenerate game: nothing is attackable. Utilities are zero and no
		// budget should be spent.
		d.Vacuous = true
		e.met.vacuous.Inc()
		return d, nil
	}
	d.Theta = sse.Coverage[a.Type]
	d.SSEUtility = participationAwareUtility(sse)
	d.AppliedSAG = a.Type == sse.BestType

	if e.policy == PolicySSE {
		d.OSSPUtility = d.SSEUtility
		return d, nil
	}

	if e.met.enabled {
		t0 = time.Now()
	}
	scheme, err := e.signalScheme(ctx, a.Type, d.Theta)
	if err != nil {
		return nil, err
	}
	if e.met.enabled {
		e.met.stageSignal.ObserveSince(t0)
	}
	d.Scheme = scheme
	if d.AppliedSAG {
		d.OSSPUtility = scheme.DefenderUtility
	} else {
		// The paper's multi-type protocol: the SAG engages only alerts of
		// the attacker's best-response type; others are handled (and
		// scored) by the online SSE.
		d.OSSPUtility = d.SSEUtility
	}
	return d, nil
}

// signalScheme runs the OSSP signaling stage for one alert type and marginal
// audit probability θ: the Bayesian program when attacker types are private,
// LP (3) when forced or when Theorem 3's preconditions fail, and the closed
// form otherwise.
func (e *Engine) signalScheme(ctx context.Context, typ int, theta float64) (signaling.Scheme, error) {
	pf := e.inst.Payoffs[typ]
	var scheme signaling.Scheme
	var err error
	switch {
	case len(e.bayes) > 0:
		b, berr := signaling.SolveBayesian(signaling.DefenderSide{
			Covered:   pf.DefenderCovered,
			Uncovered: pf.DefenderUncovered,
		}, e.bayes, theta)
		if berr != nil {
			return signaling.Scheme{}, fmt.Errorf("core: Bayesian OSSP: %w", berr)
		}
		scheme = bayesianToScheme(b, e.bayes)
	case e.useLP || !pf.SatisfiesTheorem3():
		if !pf.SatisfiesTheorem3() {
			e.met.fallback.Inc()
		}
		scheme, err = signaling.SolveLPCtx(ctx, pf, theta)
	default:
		scheme, err = signaling.Solve(pf, theta)
	}
	if err != nil {
		return signaling.Scheme{}, fmt.Errorf("core: OSSP: %w", err)
	}
	return scheme, nil
}

// degraded produces a decision for a after the primary pipeline failed,
// descending the fallback ladder. The final rung is infallible, so degraded
// always returns a usable decision. The caller holds e.mu.
//
// Degraded rungs deliberately run without the (already expired) decision
// deadline: the cache rung is a map lookup and the last-good / static rungs
// at most re-solve one small signaling LP, so they complete in microseconds.
func (e *Engine) degraded(a Alert) *Decision {
	d, lvl, err := fallback.Run(
		fallback.Step[*Decision]{Level: fallback.Cache, Try: func() (*Decision, error) {
			return e.cachedForType(a)
		}},
		fallback.Step[*Decision]{Level: fallback.LastGood, Try: func() (*Decision, error) {
			return e.lastGoodDecision(a)
		}},
		fallback.Step[*Decision]{Level: fallback.Static, Try: func() (*Decision, error) {
			return e.staticDecision(a), nil
		}},
	)
	if err != nil {
		// Unreachable: the static rung cannot fail. Guard anyway so a future
		// refactor cannot turn a degraded decision into a nil dereference.
		d, lvl = e.staticDecision(a), fallback.Static
	}
	d.Fallback = lvl
	return d
}

// cachedForType is the first degraded rung: reuse the most recently cached
// decision for the alert's type, even though the budget or rates may have
// drifted from the cached key. The scheme is near-optimal for a nearby game
// state, which beats the static policy's type-blind coverage.
func (e *Engine) cachedForType(a Alert) (*Decision, error) {
	if e.cache == nil {
		return nil, errors.New("core: decision cache disabled")
	}
	hit, ok := e.cache.latestForType(a.Type)
	if !ok {
		return nil, fmt.Errorf("core: no cached decision for type %d", a.Type)
	}
	hit.Alert = a
	hit.BudgetBefore = e.budget
	hit.BudgetAfter = e.budget
	return &hit, nil
}

// lastGoodDecision is the second degraded rung: reuse the θ vector of the
// most recent successfully solved online SSE and re-run only the (cheap)
// signaling stage for the current alert's type. The equilibrium is stale —
// it was solved for an earlier budget — but its coverage remains a feasible
// commitment, and by Theorem 2 signaling on top of it never hurts.
func (e *Engine) lastGoodDecision(a Alert) (*Decision, error) {
	sse := e.lastSSE
	if sse == nil {
		return nil, errors.New("core: no previously solved equilibrium this cycle")
	}
	d := &Decision{
		Alert:        a,
		BudgetBefore: e.budget,
		BudgetAfter:  e.budget,
		SSE:          sse,
	}
	if sse.BestType == -1 {
		d.Vacuous = true
		return d, nil
	}
	d.Theta = sse.Coverage[a.Type]
	d.SSEUtility = participationAwareUtility(sse)
	d.AppliedSAG = a.Type == sse.BestType
	if e.policy == PolicySSE {
		d.OSSPUtility = d.SSEUtility
		return d, nil
	}
	scheme, err := e.signalScheme(context.Background(), a.Type, d.Theta)
	if err != nil {
		return nil, err
	}
	d.Scheme = scheme
	if d.AppliedSAG {
		d.OSSPUtility = scheme.DefenderUtility
	} else {
		d.OSSPUtility = d.SSEUtility
	}
	return d, nil
}

// staticDecision is the terminal, infallible rung: audit with probability
// remaining-budget / expected-remaining-audit-cost (clamped to [0,1]) and
// never warn. Never warning is safe — Theorem 2 says the optimal signaling
// scheme only improves on not signaling, so its absence degrades utility,
// never feasibility — and the ratio policy spreads the remaining budget
// uniformly over the expected remaining workload so the engine cannot
// overcommit while degraded.
func (e *Engine) staticDecision(a Alert) *Decision {
	expCost := 0.0
	if len(e.lastRates) == e.inst.NumTypes() {
		for i, r := range e.lastRates {
			expCost += r * e.inst.AuditCosts[i]
		}
	} else {
		// No successful estimate yet this cycle: budget for this alert alone.
		expCost = e.inst.AuditCosts[a.Type]
	}
	p := fallback.StaticAuditProbability(e.budget, expCost)
	pf := e.inst.Payoffs[a.Type]
	util := p*pf.DefenderCovered + (1-p)*pf.DefenderUncovered
	d := &Decision{
		Alert:        a,
		BudgetBefore: e.budget,
		BudgetAfter:  e.budget,
		Theta:        p,
		SSEUtility:   util,
		OSSPUtility:  util,
		// Never warn: all probability mass on the silent signal, split
		// between audit (P0) and no-audit (Q0) by the static coverage.
		Scheme: signaling.Scheme{
			P0:              p,
			Q0:              1 - p,
			DefenderUtility: util,
			AttackerUtility: p*pf.AttackerCovered + (1-p)*pf.AttackerUncovered,
		},
	}
	return d
}

// memoize stores a value copy of d under key. The copy is taken before
// Process commits the sampled fields (Warned, AuditCharge, BudgetAfter), so
// a later hit re-samples the signal against the same Scheme instead of
// replaying one draw. The *game.Result pointer is shared between the cached
// copy and live decisions; it is treated as immutable everywhere. The
// caller has checked that the cache is on.
func (e *Engine) memoize(key string, d *Decision) {
	if e.cache.put(key, *d) {
		e.met.cacheEvictions.Inc()
	}
	e.met.cacheEntries.Set(float64(e.cache.len()))
}

// SetCacheCapacity rebalances the decision cache's entry limit, evicting
// least-recently-used entries down to the new limit. It is a no-op when
// caching is disabled and returns the number of entries evicted. The
// multi-tenant shard router calls this as tenants come and go so the total
// cached-decision footprint across all tenant engines stays bounded by one
// box-wide budget.
func (e *Engine) SetCacheCapacity(n int) int {
	if e.cache == nil {
		return 0
	}
	evicted := e.cache.setCapacity(n)
	if evicted > 0 && e.met.enabled {
		e.met.cacheEvictions.Add(uint64(evicted))
		e.met.cacheEntries.Set(float64(e.cache.len()))
	}
	return evicted
}

// CacheStats returns a snapshot of the decision cache's counters; the zero
// value when caching is disabled.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// bayesianToScheme reduces a BayesianScheme to the engine's Scheme record:
// the joint distribution carries over; the attacker utility is the
// prior-weighted mean; Deterred means every type stays out.
func bayesianToScheme(b signaling.BayesianScheme, types []signaling.AttackerType) signaling.Scheme {
	s := signaling.Scheme{
		P1: b.P1, Q1: b.Q1, P0: b.P0, Q0: b.Q0,
		DefenderUtility: b.DefenderUtility,
		Deterred:        true,
	}
	for k, t := range types {
		if b.Participates[k] {
			s.Deterred = false
			s.AttackerUtility += t.Prior * b.TypeUtilities[k]
		}
	}
	return s
}

// participationAwareUtility converts the LP (2) objective into the
// auditor's actual expected utility, accounting for the attacker's option
// to stay out: a strictly unprofitable best response means no attack (both
// sides get 0); exact indifference breaks in the auditor's favor per the
// strong-SSE convention.
func participationAwareUtility(sse *game.Result) float64 {
	const tol = 1e-9
	switch {
	case sse.AttackerUtility < -tol:
		return 0
	case sse.AttackerUtility <= tol:
		return math.Max(0, sse.DefenderUtility)
	default:
		return sse.DefenderUtility
	}
}

// AuditOutcome is the end-of-cycle retrospective decision for one
// processed alert.
type AuditOutcome struct {
	// Index is the position of the alert in Decisions().
	Index int
	// Audited reports whether the retrospective audit actually inspects
	// this alert.
	Audited bool
	// Cost is the audit cost charged if Audited (the type's V), 0
	// otherwise.
	Cost float64
}

// CloseCycle samples the retrospective audit decisions at the end of the
// cycle: each alert is audited with its signal-conditional audit
// probability (the probability the budget was charged for in real time).
// It returns one outcome per recorded decision plus the realized total
// audit cost. The realized cost concentrates around the charged budget but
// is not capped by it — the paper's budget dynamics are in expectation;
// callers that need a hard cap can truncate the returned plan.
//
// CloseCycle does not mutate engine state and may be called repeatedly
// with different rngs to draw independent audit plans.
func (e *Engine) CloseCycle(rng *rand.Rand) ([]AuditOutcome, float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	outcomes := make([]AuditOutcome, len(e.decisions))
	total := 0.0
	for i, d := range e.decisions {
		outcomes[i] = AuditOutcome{Index: i}
		if d.Vacuous {
			continue
		}
		if rng.Float64() < d.AuditCharge {
			cost := e.inst.AuditCosts[d.Alert.Type]
			outcomes[i].Audited = true
			outcomes[i].Cost = cost
			total += cost
		}
	}
	return outcomes, total
}

// CycleSummary aggregates a finished cycle for reporting.
type CycleSummary struct {
	Alerts          int
	Warnings        int
	SAGEngaged      int     // alerts where the OSSP actually applied
	BudgetSpent     float64 // initial − remaining
	MeanSSEUtility  float64
	MeanOSSPUtility float64
	FinalSSE        float64 // utility at the last alert (end-of-day health)
	FinalOSSP       float64
}

// Summary aggregates the decisions recorded so far.
func (e *Engine) Summary() CycleSummary {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := CycleSummary{
		Alerts:      len(e.decisions),
		BudgetSpent: e.initial - e.budget,
	}
	if s.Alerts == 0 {
		return s
	}
	var sse, ossp dist.Running
	for _, d := range e.decisions {
		if d.Warned {
			s.Warnings++
		}
		if d.AppliedSAG {
			s.SAGEngaged++
		}
		sse.Add(d.SSEUtility)
		ossp.Add(d.OSSPUtility)
	}
	last := e.decisions[len(e.decisions)-1]
	s.MeanSSEUtility = sse.Mean()
	s.MeanOSSPUtility = ossp.Mean()
	s.FinalSSE = last.SSEUtility
	s.FinalOSSP = last.OSSPUtility
	return s
}
