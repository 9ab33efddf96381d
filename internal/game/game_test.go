package game

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/payoff"
)

func table2Instance(t *testing.T, cost float64) *Instance {
	t.Helper()
	inst, err := NewInstance(payoff.Table2Slice(), UniformCost(7, cost))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func singleTypeInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(nil, nil); err == nil {
		t.Error("empty instance should be rejected")
	}
	if _, err := NewInstance(payoff.Table2Slice(), []float64{1}); err == nil {
		t.Error("length mismatch should be rejected")
	}
	if _, err := NewInstance([]payoff.Payoff{{}}, []float64{1}); err == nil {
		t.Error("invalid payoff should be rejected")
	}
	if _, err := NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{0}); err == nil {
		t.Error("zero audit cost should be rejected")
	}
	if _, err := NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{math.Inf(1)}); err == nil {
		t.Error("infinite audit cost should be rejected")
	}
}

func TestInstanceCopiesInputs(t *testing.T) {
	pays := []payoff.Payoff{payoff.Table2()[1]}
	costs := []float64{1}
	inst, err := NewInstance(pays, costs)
	if err != nil {
		t.Fatal(err)
	}
	costs[0] = 99
	if inst.AuditCosts[0] != 1 {
		t.Error("NewInstance must copy the cost slice")
	}
}

func TestUniformCost(t *testing.T) {
	c := UniformCost(3, 2.5)
	if len(c) != 3 || c[0] != 2.5 || c[2] != 2.5 {
		t.Fatalf("UniformCost = %v", c)
	}
}

// Single type closed form: θ* = min(1, κ·B/V) where κ = E[1/max(D,1)].
func TestOnlineSSESingleTypeClosedForm(t *testing.T) {
	inst := singleTypeInstance(t)
	for _, tc := range []struct {
		budget float64
		lambda float64
	}{
		{20, 196.57}, {5, 196.57}, {200, 196.57}, {1, 3}, {50, 3},
	} {
		fut := []dist.Poisson{{Lambda: tc.lambda}}
		res, err := SolveOnlineSSE(inst, tc.budget, fut)
		if err != nil {
			t.Fatal(err)
		}
		kappa := fut[0].InverseMeanCoefficient()
		want := math.Min(1, kappa*tc.budget)
		if res.BestType != 0 {
			t.Fatalf("BestType = %d, want 0", res.BestType)
		}
		if math.Abs(res.Coverage[0]-want) > 1e-6 {
			t.Fatalf("B=%g λ=%g: coverage %g, want %g", tc.budget, tc.lambda, res.Coverage[0], want)
		}
		wantU := inst.Payoffs[0].DefenderExpected(want)
		if math.Abs(res.DefenderUtility-wantU) > 1e-6 {
			t.Fatalf("defender utility %g, want %g", res.DefenderUtility, wantU)
		}
	}
}

func TestOfflineSSESingleTypeClosedForm(t *testing.T) {
	inst := singleTypeInstance(t)
	res, err := SolveOfflineSSE(inst, 20, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Coverage[0]-0.1) > 1e-9 {
		t.Fatalf("coverage = %g, want 0.1", res.Coverage[0])
	}
	// Budget exceeding the day's alert volume caps coverage at 1.
	res, err = SolveOfflineSSE(inst, 500, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Coverage[0]-1) > 1e-9 {
		t.Fatalf("coverage = %g, want 1", res.Coverage[0])
	}
}

func TestSSEZeroBudget(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := make([]dist.Poisson, 7)
	for i := range futures {
		futures[i] = dist.Poisson{Lambda: 10}
	}
	res, err := SolveOnlineSSE(inst, 0, futures)
	if err != nil {
		t.Fatal(err)
	}
	// With no budget, the attacker picks the type with the highest U_au
	// (type 7, index 6, U_au = 800) and the auditor eats U_du of that type.
	if res.BestType != 6 {
		t.Fatalf("BestType = %d, want 6", res.BestType)
	}
	if math.Abs(res.AttackerUtility-800) > 1e-9 {
		t.Fatalf("attacker utility = %g, want 800", res.AttackerUtility)
	}
	if math.Abs(res.DefenderUtility-(-2000)) > 1e-9 {
		t.Fatalf("defender utility = %g, want -2000", res.DefenderUtility)
	}
}

func TestSSENoAttackableTypes(t *testing.T) {
	inst := table2Instance(t, 1)
	res, err := SolveOnlineSSE(inst, 50, make([]dist.Poisson, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestType != -1 {
		t.Fatalf("BestType = %d, want -1 (vacuous game)", res.BestType)
	}
	if res.DefenderUtility != 0 || res.AttackerUtility != 0 {
		t.Fatal("vacuous game should have zero utilities")
	}
}

func TestSSEBestResponseConstraintHolds(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := []dist.Poisson{
		{Lambda: 196.57}, {Lambda: 29.02}, {Lambda: 140.46}, {Lambda: 10.84},
		{Lambda: 25.43}, {Lambda: 15.14}, {Lambda: 43.27},
	}
	res, err := SolveOnlineSSE(inst, 50, futures)
	if err != nil {
		t.Fatal(err)
	}
	best := res.BestType
	bestU := inst.Payoffs[best].AttackerExpected(res.Coverage[best])
	for j := 0; j < inst.NumTypes(); j++ {
		if futures[j].Lambda == 0 {
			continue
		}
		u := inst.Payoffs[j].AttackerExpected(res.Coverage[j])
		if u > bestU+1e-6 {
			t.Fatalf("type %d gives attacker %g > best type %d's %g", j, u, best, bestU)
		}
	}
	// Budget is respected.
	total := 0.0
	for _, b := range res.Allocation {
		total += b
	}
	if total > 50+1e-6 {
		t.Fatalf("allocation %g exceeds budget 50", total)
	}
	for j, c := range res.Coverage {
		if c < -1e-9 || c > 1+1e-9 {
			t.Fatalf("coverage[%d] = %g out of [0,1]", j, c)
		}
	}
}

func TestSSELargeBudgetDetersEverything(t *testing.T) {
	inst := table2Instance(t, 1)
	counts := []float64{10, 10, 10, 10, 10, 10, 10}
	res, err := SolveOfflineSSE(inst, 70, counts) // enough to audit every alert
	if err != nil {
		t.Fatal(err)
	}
	// Full coverage of the best type is achievable; the attacker's utility
	// must be at most that of attacking a fully covered alert.
	if res.AttackerUtility > 1e-9 {
		// All types have enough budget to be covered beyond their
		// deterrence threshold.
		t.Fatalf("attacker utility = %g, want ≤ 0 with saturating budget", res.AttackerUtility)
	}
}

func TestSSEBudgetMonotonicity(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := []dist.Poisson{
		{Lambda: 196.57}, {Lambda: 29.02}, {Lambda: 140.46}, {Lambda: 10.84},
		{Lambda: 25.43}, {Lambda: 15.14}, {Lambda: 43.27},
	}
	prev := math.Inf(-1)
	for _, b := range []float64{0, 5, 10, 20, 35, 50, 80, 120, 200, 400} {
		res, err := SolveOnlineSSE(inst, b, futures)
		if err != nil {
			t.Fatal(err)
		}
		if res.DefenderUtility < prev-1e-7 {
			t.Fatalf("budget %g: defender utility %g decreased from %g", b, res.DefenderUtility, prev)
		}
		prev = res.DefenderUtility
	}
}

func TestSSEAttackerUtilityMonotoneInBudget(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := []dist.Poisson{
		{Lambda: 196.57}, {Lambda: 29.02}, {Lambda: 140.46}, {Lambda: 10.84},
		{Lambda: 25.43}, {Lambda: 15.14}, {Lambda: 43.27},
	}
	prev := math.Inf(1)
	for _, b := range []float64{0, 10, 25, 50, 100, 250} {
		res, err := SolveOnlineSSE(inst, b, futures)
		if err != nil {
			t.Fatal(err)
		}
		if res.AttackerUtility > prev+1e-7 {
			t.Fatalf("budget %g: attacker utility %g increased from %g", b, res.AttackerUtility, prev)
		}
		prev = res.AttackerUtility
	}
}

func TestSSEInputValidation(t *testing.T) {
	inst := singleTypeInstance(t)
	if _, err := SolveOnlineSSE(inst, -1, []dist.Poisson{{Lambda: 1}}); err == nil {
		t.Error("negative budget should be rejected")
	}
	if _, err := SolveOnlineSSE(inst, 1, nil); err == nil {
		t.Error("future-count length mismatch should be rejected")
	}
	if _, err := SolveOfflineSSE(inst, 1, []float64{-3}); err == nil {
		t.Error("negative count should be rejected")
	}
	if _, err := SolveOfflineSSE(inst, 1, []float64{1, 2}); err == nil {
		t.Error("count length mismatch should be rejected")
	}
	if _, err := SolveOfflineSSE(inst, math.NaN(), []float64{1}); err == nil {
		t.Error("NaN budget should be rejected")
	}
}

func TestOfflineSSETwoTypesHandVerified(t *testing.T) {
	// Two identical types with 10 alerts each and budget 10: symmetry and
	// the best-response constraint force equal coverage 0.5 on both.
	pf := payoff.Payoff{DefenderCovered: 100, DefenderUncovered: -400, AttackerCovered: -2000, AttackerUncovered: 400}
	inst, err := NewInstance([]payoff.Payoff{pf, pf}, UniformCost(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveOfflineSSE(inst, 10, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	// θ = 0.5 on each type is enough to deter (threshold = 400/2400 = 1/6),
	// but the SSE still reports the LP coverage; both coverages must be
	// equal by symmetry and sum to the normalized budget.
	if math.Abs(res.Coverage[0]-res.Coverage[1]) > 1e-6 {
		t.Fatalf("asymmetric coverage %v for symmetric game", res.Coverage)
	}
	if res.Coverage[res.BestType] < pf.DeterrenceThreshold()-1e-9 {
		t.Fatalf("coverage %g below deterrence threshold with ample budget", res.Coverage[res.BestType])
	}
}

func TestBudgetShadowPrice(t *testing.T) {
	inst := singleTypeInstance(t)
	fut := []dist.Poisson{{Lambda: 196.57}}
	// Scarce budget: the budget row binds and the shadow price equals the
	// objective slope dU/dB = κ·(U_dc − U_du).
	res, err := SolveOnlineSSE(inst, 20, fut)
	if err != nil {
		t.Fatal(err)
	}
	kappa := fut[0].InverseMeanCoefficient()
	want := kappa * (inst.Payoffs[0].DefenderCovered - inst.Payoffs[0].DefenderUncovered)
	if math.Abs(res.BudgetShadowPrice-want) > 1e-9 {
		t.Fatalf("shadow price %g, want %g", res.BudgetShadowPrice, want)
	}
	// Saturating budget: coverage capped at 1, the budget row is loose.
	res, err = SolveOnlineSSE(inst, 1e6, fut)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BudgetShadowPrice) > 1e-9 {
		t.Fatalf("loose budget should have zero shadow price, got %g", res.BudgetShadowPrice)
	}
}

func TestQuickSSEFeasibilityInvariants(t *testing.T) {
	inst, err := NewInstance(payoff.Table2Slice(), UniformCost(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawBudget float64, seeds [7]uint8) bool {
		budget := math.Mod(math.Abs(rawBudget), 120)
		if math.IsNaN(budget) {
			budget = 10
		}
		futures := make([]dist.Poisson, 7)
		for i, s := range seeds {
			futures[i] = dist.Poisson{Lambda: float64(s % 50)}
		}
		res, err := SolveOnlineSSE(inst, budget, futures)
		if err != nil {
			return false
		}
		if res.BestType == -1 {
			for _, f := range futures {
				if f.Lambda > 0 {
					return false
				}
			}
			return true
		}
		total := 0.0
		for j, b := range res.Allocation {
			if b < -1e-9 {
				return false
			}
			total += b
			if res.Coverage[j] < -1e-9 || res.Coverage[j] > 1+1e-9 {
				return false
			}
		}
		if total > budget+1e-6 {
			return false
		}
		// Best-response dominance.
		bestU := inst.Payoffs[res.BestType].AttackerExpected(res.Coverage[res.BestType])
		for j := range futures {
			if futures[j].Lambda == 0 {
				continue
			}
			if inst.Payoffs[j].AttackerExpected(res.Coverage[j]) > bestU+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomInstance builds a valid random instance with k types.
func randomInstance(t *testing.T, rng *rand.Rand, k int) *Instance {
	t.Helper()
	pays := make([]payoff.Payoff, k)
	costs := make([]float64, k)
	for i := range pays {
		pays[i] = payoff.Payoff{
			DefenderCovered:   rng.Float64() * 700,
			DefenderUncovered: -(10 + rng.Float64()*2000),
			AttackerCovered:   -(10 + rng.Float64()*6000),
			AttackerUncovered: 10 + rng.Float64()*800,
		}
		costs[i] = 0.5 + rng.Float64()*5
	}
	inst, err := NewInstance(pays, costs)
	if err != nil {
		t.Fatalf("random instance invalid: %v", err)
	}
	return inst
}

// TestZeroCoefficientBounds is the regression test for the coeffs[j] == 0
// guard in solveCandidate: a type with a zero (or negative-zero) expected
// future-alert coefficient must fall back to the plain budget cap on its
// allocation variable rather than deriving a ±Inf bound from AuditCosts/0.
func TestZeroCoefficientBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inst := randomInstance(t, rng, 3)
	budget := 10.0

	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		coeffs := []float64{0.8, zero, 0.5}
		attackable := []bool{true, true, true}
		res, err := solveSSE(context.Background(), inst, budget, coeffs, attackable)
		if err != nil {
			t.Fatalf("zero=%g: solveSSE failed: %v", zero, err)
		}
		for j, v := range res.Allocation {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > budget+1e-9 {
				t.Fatalf("zero=%g: allocation[%d] = %g outside [0, budget]", zero, j, v)
			}
		}
		for j, c := range res.Coverage {
			if math.IsNaN(c) || c < 0 || c > 1+1e-9 {
				t.Fatalf("zero=%g: coverage[%d] = %g outside [0, 1]", zero, j, c)
			}
		}
		// The zero-coefficient type yields zero marginal coverage however
		// much budget it gets, so its coverage must be exactly zero.
		if res.Coverage[1] != 0 {
			t.Fatalf("zero=%g: zero-coefficient type has coverage %g, want 0", zero, res.Coverage[1])
		}
	}
}

// cancelAfterCtx reports no error for its first n Err calls and
// context.Canceled afterwards. Its Done channel is nil, so the simplex
// loop never polls it: only the check before each candidate sees it fire.
type cancelAfterCtx struct {
	context.Context
	n, calls int
}

func (c *cancelAfterCtx) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestSolveOnlineSSECanceled: a context that is done before a candidate
// starts makes the solve return an error wrapping the context's, never a
// best response reduced over only the candidates solved so far.
func TestSolveOnlineSSECanceled(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := make([]dist.Poisson, inst.NumTypes())
	for i := range futures {
		futures[i] = dist.Poisson{Lambda: 10}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveOnlineSSECtx(ctx, inst, 20, futures)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("already-canceled ctx: got (%v, %v), want (nil, context.Canceled)", res, err)
	}

	// Canceled once the first candidate has been solved.
	late := &cancelAfterCtx{Context: context.Background(), n: 1}
	res, err = SolveOnlineSSECtx(late, inst, 20, futures)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("ctx canceled after candidate 0: got (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if late.calls != 2 {
		t.Fatalf("ctx checked %d times, want 2 (before candidates 0 and 1)", late.calls)
	}
}
