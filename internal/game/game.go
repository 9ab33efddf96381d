// Package game implements the Stackelberg audit game underlying the SAG:
// the auditor (leader) commits to a randomized audit allocation over alert
// types; the attacker (follower) observes the commitment and picks the alert
// type that maximizes his expected utility.
//
// Two solvers are provided, both using the classic multiple-LP method (one
// LP per candidate attacker best response; the paper's LP (2)):
//
//   - SolveOnlineSSE — the online equilibrium used at each alert arrival,
//     where future alert volumes are Poisson random variables and coverage is
//     linearized through E[1/max(D,1)] (see dist.InverseMeanCoefficient).
//   - SolveOfflineSSE — the offline baseline, where the day's alert counts
//     are fixed and known, matching the "offline SSE" lines of Figures 2–3.
//
// The online SSE's marginal coverage probabilities are exactly the marginal
// audit probabilities of the optimal signaling scheme (paper Theorem 1), so
// this package is the first half of every SAG decision; package signaling is
// the second half.
package game

import (
	"context"
	"fmt"
	"math"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/lp"
	"github.com/auditgames/sag/internal/payoff"
)

// Instance describes the static part of an audit game: the alert-type
// payoff structures and the per-type audit costs V^t (the budget consumed by
// auditing one alert of that type).
type Instance struct {
	Payoffs    []payoff.Payoff
	AuditCosts []float64
}

// NewInstance validates and builds an Instance. Payoffs and costs must have
// equal nonzero length, every payoff must satisfy the paper's sign
// conventions, and every audit cost must be positive and finite.
func NewInstance(payoffs []payoff.Payoff, auditCosts []float64) (*Instance, error) {
	if len(payoffs) == 0 {
		return nil, fmt.Errorf("game: instance needs at least one alert type")
	}
	if len(payoffs) != len(auditCosts) {
		return nil, fmt.Errorf("game: %d payoffs but %d audit costs", len(payoffs), len(auditCosts))
	}
	for i, p := range payoffs {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("game: type %d: %w", i, err)
		}
	}
	for i, v := range auditCosts {
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("game: type %d: audit cost must be positive and finite, got %g", i, v)
		}
	}
	return &Instance{
		Payoffs:    append([]payoff.Payoff(nil), payoffs...),
		AuditCosts: append([]float64(nil), auditCosts...),
	}, nil
}

// NumTypes returns the number of alert types.
func (in *Instance) NumTypes() int { return len(in.Payoffs) }

// UniformCost builds the cost vector the paper's evaluation uses: V^t = c
// for every type.
func UniformCost(numTypes int, c float64) []float64 {
	costs := make([]float64, numTypes)
	for i := range costs {
		costs[i] = c
	}
	return costs
}

// Result is the Strong Stackelberg Equilibrium of one audit game.
type Result struct {
	// BestType is the attacker's best-response alert type (index into the
	// instance), or -1 when no type is attackable (all expected future
	// counts are zero), in which case the game is vacuous and utilities are
	// zero.
	BestType int
	// Coverage is the equilibrium marginal audit probability θ^{t'} per
	// type under the winning commitment.
	Coverage []float64
	// Allocation is the budget split B^{t'} per type chosen by the LP.
	Allocation []float64
	// DefenderUtility is the auditor's expected utility against the
	// victim alert of the best-response type.
	DefenderUtility float64
	// AttackerUtility is the attacker's expected utility at his best
	// response.
	AttackerUtility float64
	// CandidateFeasible records, per type, whether the "force t to be the
	// best response" LP was feasible — useful for diagnostics and tests.
	CandidateFeasible []bool
	// BudgetShadowPrice is the dual value of the shared budget constraint
	// in the winning LP: the marginal auditor utility of one more unit of
	// audit budget at this game state (0 when budget is not binding).
	BudgetShadowPrice float64
	// Stats aggregates simplex effort across every candidate LP of this
	// multiple-LP solve (feasible and infeasible alike) — the per-decision
	// solver cost the engine exports as counters.
	Stats SolveStats
}

// SolveStats itemizes the LP work behind one SSE solve.
type SolveStats struct {
	// LPSolves counts candidate LPs solved (one per attackable type).
	LPSolves int
	// Simplex accumulates iteration and pivot counts across those LPs.
	Simplex lp.Stats
}

// Accumulate adds o into s, for callers aggregating across many solves.
func (s *SolveStats) Accumulate(o SolveStats) {
	s.LPSolves += o.LPSolves
	s.Simplex.Accumulate(o.Simplex)
}

// SolveOnlineSSE computes the online SSE given the remaining audit budget
// and the Poisson-distributed future alert counts per type (paper §3.1).
func SolveOnlineSSE(inst *Instance, budget float64, futures []dist.Poisson) (*Result, error) {
	return SolveOnlineSSECtx(context.Background(), inst, budget, futures)
}

// SolveOnlineSSECtx is SolveOnlineSSE with cooperative cancellation:
// candidate LPs not yet started are skipped once ctx is done, in-flight
// simplex solves abort at their next iteration check, and the ctx error is
// returned. A context that can never be canceled costs nothing extra.
func SolveOnlineSSECtx(ctx context.Context, inst *Instance, budget float64, futures []dist.Poisson) (*Result, error) {
	if len(futures) != inst.NumTypes() {
		return nil, fmt.Errorf("game: %d future distributions for %d types", len(futures), inst.NumTypes())
	}
	if budget < 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("game: invalid budget %g", budget)
	}
	coeffs := make([]float64, inst.NumTypes())
	attackable := make([]bool, inst.NumTypes())
	for t, f := range futures {
		coeffs[t] = f.InverseMeanCoefficient()
		// A type with zero expected future arrivals cannot host an attack;
		// the paper's estimate d^t_τ counts alerts strictly after τ, so a
		// zero-rate type is excluded from the attacker's menu.
		attackable[t] = f.Lambda > 0
	}
	return solveSSE(ctx, inst, budget, coeffs, attackable)
}

// SolveOfflineSSE computes the offline SSE baseline for a full audit cycle
// whose per-type alert counts are fixed and known. Coverage of type t with
// allocation B is B/(V^t·d^t); types with zero count are not attackable.
func SolveOfflineSSE(inst *Instance, budget float64, counts []float64) (*Result, error) {
	if len(counts) != inst.NumTypes() {
		return nil, fmt.Errorf("game: %d counts for %d types", len(counts), inst.NumTypes())
	}
	if budget < 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("game: invalid budget %g", budget)
	}
	coeffs := make([]float64, inst.NumTypes())
	attackable := make([]bool, inst.NumTypes())
	for t, d := range counts {
		if d < 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("game: invalid count %g for type %d", d, t)
		}
		if d > 0 {
			coeffs[t] = 1 / d
			attackable[t] = true
		} else {
			coeffs[t] = 1
		}
	}
	return solveSSE(context.Background(), inst, budget, coeffs, attackable)
}

// solveSSE runs the multiple-LP method. coeffs[t] is the linear coverage
// coefficient: θ^t = coeffs[t]·B^t/V^t. attackable[t] gates both the
// candidate set and the best-response constraints.
//
// Candidates are solved one after another in ascending type order, keeping
// the strong-SSE tie-break: the lowest type index wins at equal defender
// utility, within the 1e-12 comparison tolerance.
//
// Cancellation is cooperative at two grains: ctx is checked before each
// candidate, and lp.SolveCtx polls it every few simplex iterations. Either
// way the solve returns the ctx error, never a best response taken over a
// subset of the candidates (which could crown the wrong type); the caller
// decides how to degrade.
func solveSSE(ctx context.Context, inst *Instance, budget float64, coeffs []float64, attackable []bool) (*Result, error) {
	k := inst.NumTypes()
	feasible := make([]bool, k)
	var stats SolveStats
	var best *Result
	for t, a := range attackable {
		if !a {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("game: online SSE canceled before candidate %d: %w", t, err)
		}
		res, lpStats, ok, err := solveCandidate(ctx, inst, budget, coeffs, attackable, t)
		if err != nil {
			return nil, err
		}
		stats.LPSolves++
		stats.Simplex.Accumulate(lpStats)
		feasible[t] = ok
		if ok && (best == nil || res.DefenderUtility > best.DefenderUtility+1e-12) {
			best = res
		}
	}
	if stats.LPSolves == 0 {
		return &Result{
			BestType:          -1,
			Coverage:          make([]float64, k),
			Allocation:        make([]float64, k),
			CandidateFeasible: feasible,
		}, nil
	}
	if best == nil {
		// Cannot happen for valid inputs: the unconstrained-attacker
		// candidate argmax U_au is always feasible with zero allocation.
		return nil, fmt.Errorf("game: no feasible best-response candidate (internal invariant violated)")
	}
	best.CandidateFeasible = feasible
	best.Stats = stats
	return best, nil
}

// solveCandidate solves LP (2) assuming alert type t is the attacker's best
// response. Variables are the budget allocations B^0..B^{k-1}.
func solveCandidate(ctx context.Context, inst *Instance, budget float64, coeffs []float64, attackable []bool, t int) (*Result, lp.Stats, bool, error) {
	k := inst.NumTypes()
	prob := lp.New(lp.Maximize, k)

	// slope[j] dθ^j/dB^j = coeffs[j]/V^j.
	slope := make([]float64, k)
	for j := 0; j < k; j++ {
		slope[j] = coeffs[j] / inst.AuditCosts[j]
	}

	// Objective: θ^t·U_dc + (1−θ^t)·U_du = slope[t]·(U_dc−U_du)·B^t + U_du.
	pt := inst.Payoffs[t]
	obj := make([]float64, k)
	obj[t] = slope[t] * (pt.DefenderCovered - pt.DefenderUncovered)
	if err := prob.SetObjective(obj); err != nil {
		return nil, lp.Stats{}, false, err
	}

	// Bounds: B^j ∈ [0, V^j/coeffs[j]] keeps θ^j ≤ 1 (and ≤ budget
	// implicitly via the shared budget row). A zero coefficient means
	// coverage never accrues for type j (zero expected future alerts), so
	// the θ^j ≤ 1 cap is vacuous and only the budget bounds B^j — dividing
	// by it would inject ±Inf into the variable bounds.
	for j := 0; j < k; j++ {
		hi := budget
		if coeffs[j] > 0 {
			if c := inst.AuditCosts[j] / coeffs[j]; c < hi {
				hi = c
			}
		}
		if err := prob.SetBounds(j, 0, hi); err != nil {
			return nil, lp.Stats{}, false, err
		}
	}

	// Best-response rows: for every attackable j ≠ t,
	// θ^t·U_ac^t + (1−θ^t)·U_au^t ≥ θ^j·U_ac^j + (1−θ^j)·U_au^j
	// ⇔ slope[t]·(U_ac^t−U_au^t)·B^t − slope[j]·(U_ac^j−U_au^j)·B^j ≥ U_au^j − U_au^t.
	for j := 0; j < k; j++ {
		if j == t || !attackable[j] {
			continue
		}
		pj := inst.Payoffs[j]
		row := make([]float64, k)
		row[t] = slope[t] * (pt.AttackerCovered - pt.AttackerUncovered)
		row[j] = -slope[j] * (pj.AttackerCovered - pj.AttackerUncovered)
		rhs := pj.AttackerUncovered - pt.AttackerUncovered
		if err := prob.AddConstraint(row, lp.GE, rhs); err != nil {
			return nil, lp.Stats{}, false, err
		}
	}

	// Shared budget: Σ B^j ≤ budget.
	ones := make([]float64, k)
	for j := range ones {
		ones[j] = 1
	}
	if err := prob.AddConstraint(ones, lp.LE, budget); err != nil {
		return nil, lp.Stats{}, false, err
	}

	sol, err := lp.SolveCtx(ctx, prob)
	if err != nil {
		return nil, lp.Stats{}, false, err
	}
	if sol.Status != lp.Optimal {
		return nil, sol.Stats, false, nil
	}

	cov := make([]float64, k)
	for j := 0; j < k; j++ {
		cov[j] = clamp01(slope[j] * sol.X[j])
	}
	res := &Result{
		BestType:        t,
		Coverage:        cov,
		Allocation:      sol.X,
		DefenderUtility: pt.DefenderExpected(cov[t]),
		AttackerUtility: pt.AttackerExpected(cov[t]),
	}
	// The shared budget row is the last constraint added above.
	if n := len(sol.Duals); n > 0 {
		res.BudgetShadowPrice = sol.Duals[n-1]
	}
	return res, sol.Stats, true, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
