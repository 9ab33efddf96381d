package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/game"
)

// gatedSolver wraps the real solver so tests can hold solves inside the
// pipeline and observe/force overlap. Each entry signals entered; the solve
// proceeds once release is closed.
type gatedSolver struct {
	entered chan struct{}
	release chan struct{}
	calls   atomic.Int32
}

func newGatedSolver() *gatedSolver {
	return &gatedSolver{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (b *gatedSolver) solve(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
	b.calls.Add(1)
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-time.After(10 * time.Second):
		return nil, errors.New("gatedSolver: never released")
	}
	return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
}

// TestProcessConcurrentKeepsBudgetChain drives many goroutines through
// Process and checks the commit-side invariants that must survive the
// unserialized pipeline: every decision committed, the budget chain
// contiguous (each decision starts where the previous one ended), and the
// budget never negative.
func TestProcessConcurrentKeepsBudgetChain(t *testing.T) {
	e := newOSSPEngine(t, multiInstance(t), 1e6, constEstimator(196, 29, 140, 10, 25, 15, 43))
	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := e.Process(Alert{Type: (g + i) % 7, Time: time.Duration(i) * time.Minute}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ds := e.Decisions()
	if len(ds) != workers*perWorker {
		t.Fatalf("committed %d decisions, want %d", len(ds), workers*perWorker)
	}
	for i, d := range ds {
		if d.BudgetAfter < 0 {
			t.Fatalf("decision %d: negative budget %g", i, d.BudgetAfter)
		}
		if i > 0 && d.BudgetBefore != ds[i-1].BudgetAfter {
			t.Fatalf("budget chain broken at %d: starts at %g, previous ended at %g",
				i, d.BudgetBefore, ds[i-1].BudgetAfter)
		}
	}
	if got := e.RemainingBudget(); got != ds[len(ds)-1].BudgetAfter {
		t.Fatalf("remaining budget %g != last decision's %g", got, ds[len(ds)-1].BudgetAfter)
	}
}

// TestProcessConcurrentSolvesOverlap proves the tentpole claim at the engine
// layer: two Process calls of different types are simultaneously inside the
// SSE solver. If the pipeline were still serialized under the engine mutex
// the second solve could never start before the first finished, and the
// barrier below would time out.
func TestProcessConcurrentSolvesOverlap(t *testing.T) {
	bs := newGatedSolver()
	e, err := NewEngine(Config{
		Instance:  multiInstance(t),
		Budget:    1e6,
		Estimator: constEstimator(196, 29, 140, 10, 25, 15, 43),
		Policy:    PolicyOSSP,
		Rand:      rand.New(rand.NewSource(42)),
		SSESolve:  bs.solve,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, typ := range []int{0, 1} {
		wg.Add(1)
		go func(typ int) {
			defer wg.Done()
			_, err := e.Process(Alert{Type: typ})
			errs <- err
		}(typ)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-bs.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("second solve never started: Process calls are serialized")
		}
	}
	close(bs.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewCycleRejectsInflightDecision: a decision whose solve spans a
// NewCycle must fail with ErrCycleRolledOver instead of charging the new
// cycle's budget for the old cycle's game.
func TestNewCycleRejectsInflightDecision(t *testing.T) {
	bs := newGatedSolver()
	e, err := NewEngine(Config{
		Instance:  multiInstance(t),
		Budget:    1e6,
		Estimator: constEstimator(196, 29, 140, 10, 25, 15, 43),
		Policy:    PolicyOSSP,
		Rand:      rand.New(rand.NewSource(42)),
		SSESolve:  bs.solve,
		Fallback:  true, // rollover must reject even when degradation is on
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Process(Alert{Type: 0})
		done <- err
	}()
	select {
	case <-bs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("solve never started")
	}
	if err := e.NewCycle(500); err != nil {
		t.Fatal(err)
	}
	close(bs.release)
	if err := <-done; !errors.Is(err, ErrCycleRolledOver) {
		t.Fatalf("got %v, want ErrCycleRolledOver", err)
	}
	if got := e.RemainingBudget(); got != 500 {
		t.Fatalf("rolled-over decision charged the new cycle: budget %g, want 500", got)
	}
	if ds := e.Decisions(); len(ds) != 0 {
		t.Fatalf("rolled-over decision was committed: %d decisions", len(ds))
	}
}

// TestProcessRetriesStaleBudget: with exact (zero) quanta, a decision whose
// snapshot went stale re-solves at the fresh budget rather than committing
// the stale solve on the first try.
func TestProcessRetriesStaleBudget(t *testing.T) {
	bs := newGatedSolver()
	e, err := NewEngine(Config{
		Instance:  multiInstance(t),
		Budget:    1e6,
		Estimator: constEstimator(196, 29, 140, 10, 25, 15, 43),
		Policy:    PolicyOSSP,
		Rand:      rand.New(rand.NewSource(42)),
		SSESolve:  bs.solve,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, typ := range []int{0, 1} {
		wg.Add(1)
		go func(typ int) {
			defer wg.Done()
			_, err := e.Process(Alert{Type: typ})
			errs <- err
		}(typ)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-bs.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("solves did not overlap")
		}
	}
	// Both solved at budget 1e6; whichever commits second sees a stale
	// snapshot and re-solves (exact quanta make any budget movement stale).
	close(bs.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := bs.calls.Load(); got < 3 {
		t.Fatalf("solver ran %d times, want ≥3 (two initial + at least one stale-commit retry)", got)
	}
	ds := e.Decisions()
	if len(ds) != 2 {
		t.Fatalf("committed %d decisions, want 2", len(ds))
	}
	if ds[1].BudgetBefore != ds[0].BudgetAfter {
		t.Fatalf("budget chain broken: %g then %g", ds[0].BudgetAfter, ds[1].BudgetBefore)
	}
}
