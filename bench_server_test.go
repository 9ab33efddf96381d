// Server-level benchmarks: decision throughput through the full HTTP
// handler path (detector → engine → JSON), serial and at 8 concurrent
// clients.
//
// The concurrent pair injects a fixed-latency solver (SSESolve seam), so
// ns/op measures whether slow solves OVERLAP — the property the old global
// server lock destroyed — independent of core count and LP scheduling
// noise. BenchmarkServerConcurrentAccess is watched by the CI regression
// gate: re-serializing the hot path collapses it to the Serialized arm's
// throughput (≈ benchServerClients× slower), far beyond the gate threshold.
package sag_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sag "github.com/auditgames/sag"
	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/server"
	"github.com/auditgames/sag/internal/sim"
)

// benchServerClients is the concurrency level of the concurrent benchmarks —
// the "8 concurrent clients" serving shape.
const benchServerClients = 8

// benchSolveLatency is the injected per-solve latency: a stand-in for the
// paper's ≈20 ms/alert LP time, scaled down to keep benchmark runs short.
const benchSolveLatency = 2 * time.Millisecond

// slowVacuousSolver sleeps benchSolveLatency and returns a vacuous
// equilibrium. Vacuous decisions charge nothing, so the budget never moves,
// every request sees an identical engine state, and throughput differences
// come purely from whether solves overlap — no optimistic-commit retries,
// no cache interplay.
func slowVacuousSolver(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
	select {
	case <-time.After(benchSolveLatency):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &game.Result{BestType: -1, Coverage: make([]float64, inst.NumTypes())}, nil
}

// instantVacuousSolver returns a vacuous equilibrium with no delay; used
// when a benchmark wants the latency somewhere other than the solve stage.
func instantVacuousSolver(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
	return &game.Result{BestType: -1, Coverage: make([]float64, inst.NumTypes())}, nil
}

// newBenchServerHandler builds the serving stack over the small planted
// world. solve overrides the SSE solver (nil = the real LP pipeline);
// estimate overrides the estimator (nil = instant fixed Table 1 rates).
func newBenchServerHandler(b *testing.B, cache sag.CacheConfig, solve sag.SSESolveFunc, estimate func(time.Duration) ([]float64, error)) (http.Handler, int, int) {
	return newBenchServerHandlerMod(b, cache, solve, estimate, nil)
}

// newBenchServerHandlerMod is newBenchServerHandler with a Config hook, for
// benchmarks that need non-default serving knobs (admission control).
func newBenchServerHandlerMod(b *testing.B, cache sag.CacheConfig, solve sag.SSESolveFunc, estimate func(time.Duration) ([]float64, error), mod func(*server.Config)) (http.Handler, int, int) {
	b.Helper()
	world, err := emr.NewWorld(emr.WorldConfig{Seed: 5, Employees: 30, Patients: 100, Departments: 4})
	if err != nil {
		b.Fatal(err)
	}
	bgE, bgP := world.NumEmployees(), world.NumPatients()
	if _, err := emr.NewGenerator(world, emr.GeneratorConfig{Seed: 5, PairsPerKind: 3, BackgroundPerDay: 1}); err != nil {
		b.Fatal(err)
	}
	inst, err := sim.Table1Instance(sim.AllTable1TypeIDs())
	if err != nil {
		b.Fatal(err)
	}
	rates := []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}
	if estimate == nil {
		estimate = func(time.Duration) ([]float64, error) {
			out := make([]float64, len(rates))
			copy(out, rates)
			return out, nil
		}
	}
	cfg := server.Config{
		World:     world,
		Taxonomy:  alerts.NewTable1Taxonomy(),
		TypeIDs:   sim.AllTable1TypeIDs(),
		Instance:  inst,
		Budget:    1e9,
		Estimator: sag.EstimatorFunc(estimate),
		Seed:      1,
		Cache:     cache,
		Clock:     func() time.Duration { return 9 * time.Hour },
		SSESolve:  solve,
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return srv.Handler(), bgE, bgP
}

// accessBodies pre-encodes one request per planted relation kind so the
// benchmark exercises all seven alert types (distinct decision states)
// without JSON encoding on the hot path.
func accessBodies(bgE, bgP int) [][]byte {
	bodies := make([][]byte, 7)
	for k := 0; k < 7; k++ {
		// Pairs are planted kind by kind, PairsPerKind (3) at a time; the
		// first pair of kind k is (bgE+3k, bgP+3k).
		body, _ := json.Marshal(server.AccessRequest{EmployeeID: bgE + 3*k, PatientID: bgP + 3*k})
		bodies[k] = body
	}
	return bodies
}

func doAccess(b *testing.B, h http.Handler, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/access", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("access status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// runConcurrentAccess drives b.N requests through h from benchServerClients
// goroutines, each pinned to its own alert type.
func runConcurrentAccess(b *testing.B, h http.Handler, bodies [][]byte) {
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < benchServerClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := bodies[w%7]
			for next.Add(1) <= int64(b.N) {
				doAccess(b, h, body)
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// doTenantAccess is doAccess with the request pinned to a tenant.
func doTenantAccess(b *testing.B, h http.Handler, tenant string, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/access", bytes.NewReader(body))
	req.Header.Set(server.TenantHeader, tenant)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("access status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// runTenantAccess drives b.N requests from benchServerClients goroutines,
// client w pinned to tenant w%tenants. Every request carries the same body,
// so within one tenant all clients contend for one decision state.
func runTenantAccess(b *testing.B, h http.Handler, body []byte, tenants int) {
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < benchServerClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("bench-%d", w%tenants)
			for next.Add(1) <= int64(b.N) {
				doTenantAccess(b, h, tenant, body)
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServerMultiTenant is the sharding win, measured. The injected
// latency sits in the ESTIMATOR, the one pipeline stage the engine must
// serialize per tenant (stateful estimators — the paper's knowledge
// rollback — are called under the engine's estimator mutex). One tenant
// therefore pins throughput at ≈ 1/benchSolveLatency no matter how many
// clients; spread across 8 tenants, each tenant estimates independently
// and the same 8-client workload overlaps ≈ 8×. The tenants=8 arm must
// beat tenants=1 by ≥ 4× req/s (≈ 8× in practice). The CI benchgate
// watches both arms.
func BenchmarkServerMultiTenant(b *testing.B) {
	rates := []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}
	slowEstimate := func(time.Duration) ([]float64, error) {
		time.Sleep(benchSolveLatency)
		out := make([]float64, len(rates))
		copy(out, rates)
		return out, nil
	}
	for _, tenants := range []int{1, 8} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			h, bgE, bgP := newBenchServerHandler(b, sag.CacheConfig{}, instantVacuousSolver, slowEstimate)
			body := accessBodies(bgE, bgP)[0]
			runTenantAccess(b, h, body, tenants)
		})
	}
}

// serialized wraps h in one global mutex — the locking discipline of the
// pre-PR-4 handler, which held the server mutex across detector, solve, and
// JSON write. Kept as the in-tree baseline the unserialized path is
// measured against.
func serialized(h http.Handler) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// BenchmarkServerAccess is the single-client baseline on the real pipeline
// (quantized decision cache on, steady state all hits): the latency a lone
// caller sees. Unserializing the hot path must keep this within noise.
func BenchmarkServerAccess(b *testing.B) {
	h, bgE, bgP := newBenchServerHandler(b, sag.CacheConfig{Size: 64, BudgetQuantum: 1e6, RateQuantum: 1}, nil, nil)
	bodies := accessBodies(bgE, bgP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doAccess(b, h, bodies[i%7])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServerSlowSolveAccess is the single-client arm of the
// fixed-latency pair: ns/op ≈ benchSolveLatency plus the serving path. The
// concurrent arm must beat this by ≈ benchServerClients×.
func BenchmarkServerSlowSolveAccess(b *testing.B) {
	h, bgE, bgP := newBenchServerHandler(b, sag.CacheConfig{}, slowVacuousSolver, nil)
	bodies := accessBodies(bgE, bgP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doAccess(b, h, bodies[i%7])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServerConcurrentAccess: 8 clients, every request a
// benchSolveLatency solve of its own type. Overlapping solves put ns/op at
// ≈ benchSolveLatency/8; a re-serialized hot path puts it back at
// ≈ benchSolveLatency. The CI benchgate watches this benchmark.
func BenchmarkServerConcurrentAccess(b *testing.B) {
	h, bgE, bgP := newBenchServerHandler(b, sag.CacheConfig{}, slowVacuousSolver, nil)
	bodies := accessBodies(bgE, bgP)
	runConcurrentAccess(b, h, bodies)
}

// BenchmarkServerConcurrentAccessSerialized is the same workload behind a
// global handler lock — the pre-PR-4 serving discipline. The ratio of this
// benchmark to BenchmarkServerConcurrentAccess is the unserialization win.
func BenchmarkServerConcurrentAccessSerialized(b *testing.B) {
	h, bgE, bgP := newBenchServerHandler(b, sag.CacheConfig{}, slowVacuousSolver, nil)
	bodies := accessBodies(bgE, bgP)
	runConcurrentAccess(b, serialized(h), bodies)
}

// benchTenantAccess fires one access pinned to tenant and reports the status
// plus whether a Retry-After header came back.
func benchTenantAccess(h http.Handler, tenant string, body []byte) (code int, retryAfter string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/access", bytes.NewReader(body))
	req.Header.Set(server.TenantHeader, tenant)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Result().Header.Get("Retry-After")
}

// BenchmarkServerOverload is the admission-control regression gate: 8
// unpaced greedy clients flood one tenant at several times its admitted rate
// while 3 polite tenants run one closed-loop client each, every decision
// costing a benchSolveLatency solve. b.N counts POLITE requests — ns/op is
// the latency a polite tenant sees while a neighbor floods the box. The
// benchmark fails if the polite tenants are shed more than 5% or if the
// greedy tenant is never shed: either way the fairness property the admit
// layer exists for is gone. Watched by the CI benchgate.
func BenchmarkServerOverload(b *testing.B) {
	h, bgE, bgP := newBenchServerHandlerMod(b, sag.CacheConfig{}, slowVacuousSolver, nil,
		func(cfg *server.Config) {
			cfg.Admission = admit.Config{
				// Rate 600/s with a 2ms solve admits well under the greedy
				// flood (8 clients ≈ 3000+ req/s demand) but well over a
				// single polite closed-loop client (≈ 450 req/s).
				Rate:           600,
				Burst:          60,
				MaxInflight:    8,
				TenantInflight: 2,
				QueueDepth:     32,
				MaxWait:        20 * time.Millisecond,
			}
		})
	body := accessBodies(bgE, bgP)[0]

	const politeTenantsN = 3
	var (
		stop                 atomic.Bool
		politeNext           atomic.Int64
		politeOK, politeShed atomic.Int64
		greedyOK, greedyShed atomic.Int64
	)
	b.ResetTimer()
	var greedyWG sync.WaitGroup
	for w := 0; w < benchServerClients; w++ {
		greedyWG.Add(1)
		go func() {
			defer greedyWG.Done()
			for !stop.Load() {
				if code, _ := benchTenantAccess(h, "greedy", body); code == http.StatusOK {
					greedyOK.Add(1)
				} else {
					greedyShed.Add(1)
				}
			}
		}()
	}
	var politeWG sync.WaitGroup
	for p := 0; p < politeTenantsN; p++ {
		politeWG.Add(1)
		go func(p int) {
			defer politeWG.Done()
			tenant := fmt.Sprintf("polite-%d", p)
			for politeNext.Add(1) <= int64(b.N) {
				if code, _ := benchTenantAccess(h, tenant, body); code == http.StatusOK {
					politeOK.Add(1)
				} else {
					politeShed.Add(1)
				}
			}
		}(p)
	}
	politeWG.Wait()
	stop.Store(true)
	greedyWG.Wait()
	b.StopTimer()

	b.ReportMetric(float64(politeOK.Load())/b.Elapsed().Seconds(), "polite-req/s")
	total := greedyOK.Load() + greedyShed.Load()
	if total > 0 {
		b.ReportMetric(float64(greedyShed.Load())/float64(total), "greedy-shed-ratio")
	}
	if n := politeOK.Load() + politeShed.Load(); n > 0 {
		if ratio := float64(politeShed.Load()) / float64(n); ratio > 0.05 {
			b.Fatalf("polite tenants shed %.1f%% (> 5%%): greedy flood starved polite traffic", 100*ratio)
		}
	}
	// Short calibration runs may finish before the flood saturates the
	// bucket; only a full-length run must observe greedy shedding.
	if b.N >= 1000 && greedyShed.Load() == 0 {
		b.Fatal("greedy tenant was never shed: admission control is not engaging under 5x overload")
	}
}
