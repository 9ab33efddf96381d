package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/server"
	"github.com/auditgames/sag/internal/sim"
	"github.com/auditgames/sag/internal/wal"
)

// The serving configuration mirrors cmd/sagserver's defaults.
const (
	historyDays      = 41
	budget           = 50.0
	worldEmployees   = 400
	worldPatients    = 2000
	backgroundPerDay = 500
	pairsPerKind     = 120
	requestTimeout   = 10 * time.Second
)

// env is the synthetic hospital the server is built over, plus the
// benchmark's own copy of the detection rules (for expected alert types).
type env struct {
	world   *emr.World
	gen     *emr.Generator
	tax     *alerts.Taxonomy
	det     *alerts.Engine
	curves  *history.Curves
	inst    *game.Instance
	typeIDs []int
}

// buildEnv builds the world from seed and fits the knowledge-rollback
// arrival curves on historyDays generated days, as cmd/sagserver does.
func buildEnv(seed int64) (*env, error) {
	world, err := emr.NewWorld(emr.WorldConfig{Seed: seed, Employees: worldEmployees, Patients: worldPatients})
	if err != nil {
		return nil, err
	}
	gen, err := emr.NewGenerator(world, emr.GeneratorConfig{Seed: seed, BackgroundPerDay: backgroundPerDay, PairsPerKind: pairsPerKind})
	if err != nil {
		return nil, err
	}
	tax := alerts.NewTable1Taxonomy()
	det, err := alerts.NewEngine(world, tax)
	if err != nil {
		return nil, err
	}
	typeIDs := sim.AllTable1TypeIDs()
	index := make(map[int]int, len(typeIDs))
	for i, id := range typeIDs {
		index[id] = i
	}
	var recs []history.Record
	for d := 0; d < historyDays; d++ {
		scanned, err := det.Scan(gen.Day(d))
		if err != nil {
			return nil, err
		}
		for _, a := range scanned {
			if idx, ok := index[a.Type]; ok {
				recs = append(recs, history.Record{Day: d, Type: idx, Time: a.Time})
			}
		}
	}
	curves, err := history.NewCurves(recs, len(typeIDs), historyDays)
	if err != nil {
		return nil, err
	}
	inst, err := sim.Table1Instance(typeIDs)
	if err != nil {
		return nil, err
	}
	return &env{world: world, gen: gen, tax: tax, det: det, curves: curves, inst: inst, typeIDs: typeIDs}, nil
}

// newEstimator builds one tenant's knowledge-rollback estimator.
func (e *env) newEstimator() (*history.Rollback, error) {
	return history.NewRollback(e.curves, history.DefaultRollbackThreshold)
}

// serverConfig is the server.Config of workload w. est wraps each tenant's
// estimator and solve replaces the SSE solver (both nil outside traced runs).
func (e *env) serverConfig(w *workload, reg *obs.Registry, clock func() time.Duration, dataDir string,
	est func(*history.Rollback) core.Estimator, solve core.SSESolveFunc) server.Config {
	cfg := server.Config{
		World:    e.world,
		Taxonomy: e.tax,
		TypeIDs:  e.typeIDs,
		Instance: e.inst,
		Budget:   budget,
		Seed:     serverSeed,
		NewEstimator: func(string) (core.Estimator, error) {
			r, err := e.newEstimator()
			if err != nil || est == nil {
				return r, err
			}
			return est(r), nil
		},
		Clock:          clock,
		Metrics:        reg,
		RequestTimeout: requestTimeout,
		SSESolve:       solve,
	}
	if w.tenants > 0 {
		cfg.MaxTenants = 2 * (w.tenants + 1)
	}
	if w.cache {
		cfg.Cache = core.CacheConfig{Size: 7 * (w.tenants + 1), BudgetQuantum: cacheBudgetQuantum, RateQuantum: cacheRateQuantum}
	}
	if w.admission {
		cfg.Admission = admit.Config{Rate: admitRate, Burst: admitRate, MaxInflight: admitInflight, QueueDepth: admitInflight}
	}
	if w.durable {
		cfg.DataDir = dataDir
		cfg.Fsync = wal.FsyncInterval
		// SnapshotEvery stays at the server's default, 4096 records: a few
		// snapshots per tenant a run. Each holds the tenant's lifecycle lock
		// across an fsync, so the fewer there are, the less the shared
		// disk's speed shows in the request path.
		cfg.SegmentBytes = walSegmentBytes
		cfg.DiskBudgetBytes = walDiskBudget
		cfg.CompactInterval = walCompactInterval
	}
	return cfg
}

// listening is a server.Server on a loopback listener.
type listening struct {
	srv  *server.Server
	base string
	stop context.CancelFunc
	done chan error
}

// listen serves srv.Handler (through wrap, when set) on 127.0.0.1 with
// server.Run, the same listener lifecycle cmd/sagserver uses.
func listen(srv *server.Server, wrap func(http.Handler) http.Handler) (*listening, error) {
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addr := make(chan net.Addr, 1)
	l := &listening{srv: srv, stop: cancel, done: make(chan error, 1)}
	go func() {
		l.done <- server.Run(ctx, server.RunConfig{
			Addr:          "127.0.0.1:0",
			Handler:       h,
			ShutdownGrace: 2 * time.Second,
			Logf:          func(string, ...any) {},
			OnListen:      func(a net.Addr) { addr <- a },
		})
	}()
	select {
	case a := <-addr:
		l.base = "http://" + a.String()
		return l, nil
	case err := <-l.done:
		cancel()
		return nil, fmt.Errorf("listening: %v", err)
	}
}

// shutdown stops the listener and waits for server.Run to return.
func (l *listening) shutdown() error {
	l.stop()
	return <-l.done
}

// stack is everything one set-up builds: the environment, the primary on
// its listener and, for durable workloads, the follower replicating it.
type stack struct {
	env      *env
	w        *workload
	dir      string
	reg      *obs.Registry
	clock    *atomic.Int64
	primary  *listening
	follower *server.Server
	freg     *obs.Registry
	fstop    context.CancelFunc
}

// setUp builds the world, fits history, builds the server, pre-creates the
// workload's tenants and, for durable workloads, starts the follower and
// waits until it has caught up. This is what setup_s times.
func setUp(w *workload, seed int64, dir string, tr *tracer) (*stack, error) {
	e, err := buildEnv(seed)
	if err != nil {
		return nil, err
	}
	st := &stack{env: e, w: w, dir: dir, reg: obs.NewRegistry(), clock: new(atomic.Int64)}
	clock := func() time.Duration { return time.Duration(st.clock.Load()) }
	var est func(*history.Rollback) core.Estimator
	var solve core.SSESolveFunc
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		est, solve, wrap = tr.estimator, tr.solve, tr.handler
	}
	srv, err := server.New(e.serverConfig(w, st.reg, clock, filepath.Join(dir, "primary"), est, solve))
	if err != nil {
		return nil, err
	}
	for _, id := range w.tenantIDs() {
		if err := srv.EnsureTenant(id); err != nil {
			return nil, err
		}
	}
	if w.durable {
		// A standby reports lag 1 for a tenant whose journal is still
		// empty, and never becomes ready; a snapshot gives every tenant a
		// first record to replicate.
		if err := srv.SnapshotAll(); err != nil {
			return nil, err
		}
	}
	if st.primary, err = listen(srv, wrap); err != nil {
		return nil, err
	}
	if w.durable {
		if err := st.startFollower(); err != nil {
			st.tearDown()
			return nil, err
		}
	}
	return st, nil
}

// startFollower starts an in-process hot standby tailing the primary and
// waits until its readiness probe reports it caught up.
func (st *stack) startFollower() error {
	st.freg = obs.NewRegistry()
	cfg := st.env.serverConfig(st.w, st.freg, func() time.Duration { return time.Duration(st.clock.Load()) },
		filepath.Join(st.dir, "follower"), nil, nil)
	cfg.FollowPrimary = st.primary.base
	// The standby keeps no disk budget of its own, so nothing but the
	// replication clients ever writes its directory.
	cfg.DiskBudgetBytes, cfg.CompactInterval = 0, 0
	f, err := server.New(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := f.StartFollowing(ctx); err != nil {
		cancel()
		return err
	}
	st.follower, st.fstop = f, cancel
	return waitCaughtUp(f, 30*time.Second)
}

// waitCaughtUp polls the follower's readiness probe until it answers 200.
func waitCaughtUp(f *server.Server, limit time.Duration) error {
	h := f.Handler()
	deadline := time.Now().Add(limit)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
		if rec.Code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not caught up after %v: %s", limit, rec.Body.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stopFollower stops replication and waits for the clients to exit.
func (st *stack) stopFollower() {
	if st.follower == nil {
		return
	}
	st.fstop()
	_ = st.follower.Close()
	st.follower = nil
}

// tearDown stops everything the set-up started and removes its files.
func (st *stack) tearDown() {
	st.stopFollower()
	if st.primary != nil {
		_ = st.primary.shutdown()
		_ = st.primary.srv.Close()
		st.primary = nil
	}
	_ = os.RemoveAll(st.dir)
}
