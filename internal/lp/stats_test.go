package lp

import "testing"

// TestSolveStats checks that the per-phase effort breakdown is populated
// and consistent with the legacy Iterations field.
func TestSolveStats(t *testing.T) {
	// max x+y s.t. x+y <= 1, x+2y >= 0.5 — the GE row forces a phase 1.
	p := New(Maximize, 2)
	if err := p.SetObjective([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 1}, LE, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 2}, GE, 0.5); err != nil {
		t.Fatal(err)
	}
	sol := MustSolve(p)
	if sol.Stats.Iterations() != sol.Iterations {
		t.Fatalf("Stats.Iterations()=%d disagrees with Iterations=%d", sol.Stats.Iterations(), sol.Iterations)
	}
	if sol.Stats.Phase1Iterations == 0 {
		t.Fatal("GE constraint must force phase-1 iterations")
	}
	if sol.Stats.Pivots < sol.Stats.Iterations() {
		t.Fatalf("pivots %d < iterations %d: drive-out pivots can only add", sol.Stats.Pivots, sol.Stats.Iterations())
	}

	var agg Stats
	agg.Accumulate(sol.Stats)
	agg.Accumulate(sol.Stats)
	if agg.Pivots != 2*sol.Stats.Pivots || agg.Iterations() != 2*sol.Iterations {
		t.Fatalf("Accumulate wrong: %+v", agg)
	}
}

// TestSolveStatsInfeasible: infeasible problems still report the phase-1
// effort spent discovering infeasibility.
func TestSolveStatsInfeasible(t *testing.T) {
	p := New(Minimize, 1)
	if err := p.AddConstraint([]float64{1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1}, LE, 1); err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	if sol.Stats.Phase1Iterations == 0 || sol.Stats.Phase2Iterations != 0 {
		t.Fatalf("infeasible stats %+v: want phase-1 work only", sol.Stats)
	}
}
