package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/sim"
)

// gatedSolver is an SSESolveFunc wrapper that parks every solve until
// release is closed, signaling each entry on entered. It lets tests prove
// that two HTTP decisions are inside the solver at the same time — the
// tentpole property the old global server lock made impossible.
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

// fixtureWith builds the standard test server, letting the caller mutate the
// Config (inject a solver, enable the cache) before construction. The
// returned IDs are the type-1 (same last name) planted pair; the type-2
// (coworker) pair is at (bgE+3, bgP+3) — PairsPerKind pairs are planted per
// kind, in kind order.
func fixtureWith(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, int, int) {
	t.Helper()
	world, err := emr.NewWorld(emr.WorldConfig{Seed: 5, Employees: 30, Patients: 100, Departments: 4})
	if err != nil {
		t.Fatal(err)
	}
	bgE, bgP := world.NumEmployees(), world.NumPatients()
	if _, err := emr.NewGenerator(world, emr.GeneratorConfig{Seed: 5, PairsPerKind: 3, BackgroundPerDay: 1}); err != nil {
		t.Fatal(err)
	}
	inst, err := sim.Table1Instance(sim.AllTable1TypeIDs())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		World:    world,
		Taxonomy: alerts.NewTable1Taxonomy(),
		TypeIDs:  sim.AllTable1TypeIDs(),
		Instance: inst,
		Budget:   50,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) {
			return []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}, nil
		}),
		Seed:  1,
		Clock: func() time.Duration { return 9 * time.Hour },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, bgE, bgP
}

// TestConcurrentAccessSolvesOverlap is the regression test for the global
// server lock: two slow /v1/access solves of different alert types must be
// inside the SSE solver simultaneously. Under the old handler — which held
// s.mu across the whole decision — the second request could not reach the
// solver until the first returned, and this test times out at the barrier.
func TestConcurrentAccessSolvesOverlap(t *testing.T) {
	bs := newGatedSolver()
	_, ts, bgE, bgP := fixtureWith(t, func(cfg *Config) { cfg.SSESolve = bs.solve })

	var wg sync.WaitGroup
	type result struct {
		resp AccessResponse
		code int
	}
	results := make(chan result, 2)
	for _, pair := range [][2]int{{bgE, bgP}, {bgE + 3, bgP + 3}} { // type 1 and type 2: distinct state keys
		wg.Add(1)
		go func(emp, pat int) {
			defer wg.Done()
			var resp AccessResponse
			code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: emp, PatientID: pat}, &resp)
			results <- result{resp, code}
		}(pair[0], pair[1])
	}
	for i := 0; i < 2; i++ {
		select {
		case <-bs.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("second /v1/access never reached the solver: the serving path is serialized")
		}
	}
	close(bs.release)
	wg.Wait()
	close(results)
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("access status %d", r.code)
		}
		if !r.resp.Alert {
			t.Fatalf("planted pair did not alert: %+v", r.resp)
		}
		if r.resp.Fallback != "" {
			t.Fatalf("decision degraded (%s): the solver barrier timed out", r.resp.Fallback)
		}
	}
}

// TestCloseCycleGuard: the cycle can be closed once. A second close — which
// would re-sample the audit plan and re-charge its total — answers 409, as
// does /v1/access, until /v1/cycle/new reopens the server.
func TestCloseCycleGuard(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	for i := 0; i < 5; i++ {
		if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("access status %d", code)
		}
	}
	var first CloseResponse
	if code := post(t, ts, "/v1/cycle/close", struct{}{}, &first); code != http.StatusOK {
		t.Fatalf("first close status %d", code)
	}
	if code := post(t, ts, "/v1/cycle/close", struct{}{}, nil); code != http.StatusConflict {
		t.Fatalf("second close status %d, want 409", code)
	}
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusConflict {
		t.Fatalf("access after close status %d, want 409", code)
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if !st.Closed {
		t.Fatalf("status does not report the closed cycle: %+v", st)
	}
	if st.Accesses != 5 {
		t.Fatalf("rejected access inflated the counter: %+v", st)
	}
	if code := post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: 40}, nil); code != http.StatusOK {
		t.Fatalf("new cycle status %d", code)
	}
	get(t, ts, "/v1/status", &st)
	if st.Closed {
		t.Fatalf("new cycle did not reopen: %+v", st)
	}
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
		t.Fatalf("access after reopen status %d", code)
	}
	if code := post(t, ts, "/v1/cycle/close", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("close of the new cycle status %d", code)
	}
}

// TestQuitIsIdempotent: repeated quit reports for one employee re-confirm
// the flag but must not inflate the quit counter — front ends retry.
func TestQuitIsIdempotent(t *testing.T) {
	_, ts, bgE, _ := fixture(t)
	for i := 0; i < 3; i++ {
		var out struct {
			Flagged bool `json:"flagged"`
		}
		if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE}, &out); code != http.StatusOK || !out.Flagged {
			t.Fatalf("quit %d: status %d flagged %v", i, code, out.Flagged)
		}
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if st.Quits != 1 || st.FlaggedUsers != 1 {
		t.Fatalf("repeated quits inflated counters: %+v", st)
	}
}
