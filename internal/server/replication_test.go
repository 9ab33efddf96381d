package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/sim"
	"github.com/auditgames/sag/internal/wal"
)

// replicaFixture is durableFixture with a config hook, so replication tests
// can set FollowPrimary, SegmentBytes, and FollowerReadyLag while keeping the
// exact same world and engine seeds on both sides of the stream.
func replicaFixture(t *testing.T, dir string, logs *logBuf, mod func(*Config)) (*Server, *httptest.Server, int, int) {
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
		Seed:    1,
		Clock:   func() time.Duration { return 9 * time.Hour },
		DataDir: dir,
		Fsync:   wal.FsyncAlways,
	}
	if logs != nil {
		cfg.Logf = logs.logf
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, bgE, bgP
}

// startFollower builds a follower over dir replicating from primaryURL and
// starts its replication clients.
func startFollower(t *testing.T, dir, primaryURL string, logs *logBuf, readyLag int) (*Server, *httptest.Server) {
	t.Helper()
	srv, ts, _, _ := replicaFixture(t, dir, logs, func(cfg *Config) {
		cfg.FollowPrimary = primaryURL
		cfg.FollowerReadyLag = readyLag
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := srv.StartFollowing(ctx); err != nil {
		t.Fatalf("StartFollowing: %v", err)
	}
	return srv, ts
}

type readyzBody struct {
	Status     string `json:"status"`
	LagRecords int64  `json:"lag_records"`
}

// waitFollowerReady polls the follower's /v1/readyz until it answers 200,
// asserting the body advertises the following state along the way.
func waitFollowerReady(t *testing.T, ts *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var lastCode int
	var lastBody string
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lastCode, lastBody = resp.StatusCode, string(raw)
		var body readyzBody
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("readyz body %q: %v", raw, err)
		}
		if body.Status != "following" {
			t.Fatalf("readyz status %q, want \"following\": %s", body.Status, raw)
		}
		if resp.StatusCode == http.StatusOK {
			if body.LagRecords != 0 {
				t.Fatalf("ready follower reports lag %d: %s", body.LagRecords, raw)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never became ready (last: %d %s)", lastCode, lastBody)
}

// postRaw posts a JSON body and returns the raw response for byte compares.
func postRaw(t *testing.T, ts *httptest.Server, path string, body any) (int, string, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw), resp.Header
}

// tenantSegRange reads the min and max WAL segment numbers of the default
// tenant under a data dir.
func tenantSegRange(t *testing.T, dir string) (lo, hi int) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "tenants", "t-"+DefaultTenantID))
	if err != nil {
		t.Fatalf("listing segments: %v", err)
	}
	lo = -1
	for _, e := range entries {
		name, ok := strings.CutPrefix(e.Name(), "wal-")
		if !ok {
			continue
		}
		name, ok = strings.CutSuffix(name, ".sagw")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(name)
		if err != nil {
			continue
		}
		if lo == -1 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo == -1 {
		t.Fatalf("no segments under %s", dir)
	}
	return lo, hi
}

// TestFollowerReadyOverEmptyJournal: a standby over a primary tenant that
// has never written a record has nothing to catch up on, so /v1/readyz
// must answer 200 rather than report a lag of one forever.
func TestFollowerReadyOverEmptyJournal(t *testing.T) {
	_, prim, _, _ := replicaFixture(t, t.TempDir(), nil, nil)
	_, fol := startFollower(t, t.TempDir(), prim.URL, nil, 0)
	waitFollowerReady(t, fol)
}

// TestFollowerFollowsReloadedTenant: a journal failure unloads the
// primary's tenant and closes its journal, which must end the replication
// stream over it, so the standby reconnects to the reloaded instance and
// keeps replicating what the primary acknowledges afterwards.
func TestFollowerFollowsReloadedTenant(t *testing.T) {
	primSrv, prim, bgE, bgP := replicaFixture(t, t.TempDir(), nil, nil)
	if code := post(t, prim, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
		t.Fatalf("primary access status %d", code)
	}
	_, fol := startFollower(t, t.TempDir(), prim.URL, nil, 0)
	waitFollowerReady(t, fol)

	primSrv.SetJournalFault(wal.FaultSync, alwaysFail())
	if code := post(t, prim, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusInternalServerError {
		t.Fatalf("faulted access status %d, want 500", code)
	}
	primSrv.SetJournalFault(wal.FaultSync, nil)
	for i := 0; i < 3; i++ {
		if code := post(t, prim, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("access after the reload: status %d", code)
		}
	}
	want := mustGetRaw(t, prim, "/v1/cycle/summary")
	deadline := time.Now().Add(20 * time.Second)
	for {
		got := mustGetRaw(t, fol, "/v1/cycle/summary")
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up with the reloaded tenant:\nprimary: %s\nstandby: %s", want, got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFollowerCatchUpGateAndPromote is the in-process version of the failover
// drill's happy path: a follower discovers the primary's tenant, catches up
// to zero lag, rejects mutations with 503 + Retry-After while standing by,
// and after promotion serves mutations over state byte-identical to the
// primary's.
func TestFollowerCatchUpGateAndPromote(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := replicaFixture(t, primDir, nil, nil)
	for i := 0; i < 6; i++ {
		if code := post(t, prim, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}
	post(t, prim, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil)
	if code := post(t, prim, "/v1/quit", QuitRequest{EmployeeID: bgE + 1}, nil); code != http.StatusOK {
		t.Fatalf("primary quit status %d", code)
	}

	folSrv, fol := startFollower(t, folDir, prim.URL, nil, 0)
	waitFollowerReady(t, fol)

	// Reads serve the replicated state: the cycle summary is byte-identical.
	code, wantSummary := getRaw(t, prim, "/v1/cycle/summary")
	if code != http.StatusOK {
		t.Fatalf("primary summary status %d", code)
	}
	code, gotSummary := getRaw(t, fol, "/v1/cycle/summary")
	if code != http.StatusOK {
		t.Fatalf("follower summary status %d", code)
	}
	if gotSummary != wantSummary {
		t.Fatalf("follower summary diverged:\nprimary:  %s\nfollower: %s", wantSummary, gotSummary)
	}

	// Mutations are gated with 503 + Retry-After until promotion.
	for _, path := range []string{"/v1/access", "/v1/quit", "/v1/cycle/close", "/v1/cycle/new"} {
		code, body, hdr := postRaw(t, fol, path, AccessRequest{EmployeeID: bgE, PatientID: bgP})
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s on follower: status %d body %s, want 503", path, code, body)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("%s on follower: 503 without Retry-After", path)
		}
		if !strings.Contains(body, "promote") {
			t.Fatalf("%s on follower: body %q does not point at promotion", path, body)
		}
	}
	// A follower cannot feed another follower.
	code, body := getRaw(t, fol, "/v1/replicate?tenant="+DefaultTenantID)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("replicate from follower: status %d body %s, want 503", code, body)
	}

	var promoted struct {
		Promoted int `json:"promoted"`
	}
	if code := post(t, fol, "/v1/admin/promote", struct{}{}, &promoted); code != http.StatusOK {
		t.Fatalf("promote status %d", code)
	}
	if promoted.Promoted != 1 {
		t.Fatalf("promoted %d tenants, want 1", promoted.Promoted)
	}
	if code := post(t, fol, "/v1/admin/promote", struct{}{}, nil); code != http.StatusConflict {
		t.Fatalf("second promote status %d, want 409", code)
	}

	// The promoted standby closes the cycle bit-identically to the primary —
	// same engine state, same deterministic signal draws.
	code, wantClose, _ := postRaw(t, prim, "/v1/cycle/close", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("primary close status %d", code)
	}
	code, gotClose, _ := postRaw(t, fol, "/v1/cycle/close", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("promoted close status %d", code)
	}
	if gotClose != wantClose {
		t.Fatalf("promoted cycle close diverged:\nprimary:  %s\npromoted: %s", wantClose, gotClose)
	}

	// Mutations land in the promoted standby's own journal.
	if code := post(t, fol, "/v1/cycle/new", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("post-promotion cycle/new status %d", code)
	}
	var acc AccessResponse
	if code := post(t, fol, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &acc); code != http.StatusOK {
		t.Fatalf("post-promotion access status %d", code)
	}
	if got := folSrv.Tenants(); len(got) != 1 {
		t.Fatalf("promoted server tenants %v", got)
	}
	var ready struct {
		Status string `json:"status"`
	}
	if code := get(t, fol, "/v1/readyz", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("promoted readyz %d %+v, want 200 ready", code, ready)
	}
}

// TestFollowerReseedAfterGappedCursor deliberately invalidates a follower's
// resume cursor — the primary snapshots and prunes past it while the
// follower is offline — and requires the restarted follower to re-seed from
// the primary's snapshot rather than diverge or stall (the ISSUE's
// acceptance scenario).
func TestFollowerReseedAfterGappedCursor(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := replicaFixture(t, primDir, nil, func(cfg *Config) {
		cfg.SegmentBytes = 256 // roll fast so snapshots prune quickly
	})
	for i := 0; i < 3; i++ {
		if code := post(t, prim, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}

	// First follower incarnation catches up, then goes offline (its
	// replication context is canceled, modelling a crash).
	logs1 := &logBuf{}
	folSrv1, folTS1, _, _ := replicaFixture(t, folDir, logs1, func(cfg *Config) {
		cfg.FollowPrimary = prim.URL
	})
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := folSrv1.StartFollowing(ctx1); err != nil {
		t.Fatalf("StartFollowing: %v", err)
	}
	waitFollowerReady(t, folTS1)
	cancel1()
	if fc := folSrv1.follow.Load(); fc != nil {
		fc.stop() // wait: a still-draining client must not mirror the pruning below
	}
	folTS1.Close()
	_, folMax := tenantSegRange(t, folDir)

	// While the follower is down, the primary advances past snapshot
	// pruning: every segment the follower mirrored disappears.
	for i := 0; i < 40; i++ {
		if code := post(t, prim, "/v1/admin/snapshot", struct{}{}, nil); code != http.StatusOK {
			t.Fatalf("snapshot %d status %d", i, code)
		}
		if lo, _ := tenantSegRange(t, primDir); lo > folMax {
			break
		}
	}
	if lo, _ := tenantSegRange(t, primDir); lo <= folMax {
		t.Fatalf("primary min segment %d never pruned past follower max %d", lo, folMax)
	}
	if code := post(t, prim, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
		t.Fatal("post-prune access failed")
	}

	// Second incarnation over the same dir: its recovered cursor is gapped,
	// the primary demands a re-seed, and catch-up completes anyway.
	logs2 := &logBuf{}
	_, fol2 := startFollower(t, folDir, prim.URL, logs2, 0)
	waitFollowerReady(t, fol2)
	if !logs2.contains("re-seed") {
		t.Fatalf("follower caught up without a re-seed; logs: %v", logs2.lines)
	}
	if lo, _ := tenantSegRange(t, folDir); lo <= folMax {
		t.Fatalf("re-seeded follower min segment %d did not advance past stale max %d", lo, folMax)
	}
	code, wantSummary := getRaw(t, prim, "/v1/cycle/summary")
	if code != http.StatusOK {
		t.Fatalf("primary summary status %d", code)
	}
	code, gotSummary := getRaw(t, fol2, "/v1/cycle/summary")
	if code != http.StatusOK {
		t.Fatalf("follower summary status %d", code)
	}
	if gotSummary != wantSummary {
		t.Fatalf("re-seeded follower summary diverged:\nprimary:  %s\nfollower: %s", wantSummary, gotSummary)
	}
}

// TestFollowerRequiresDataDir pins the config contract: following without
// durability is a construction-time error, not a silent no-op.
func TestFollowerRequiresDataDir(t *testing.T) {
	world, err := emr.NewWorld(emr.WorldConfig{Seed: 5, Employees: 30, Patients: 100, Departments: 4})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sim.Table1Instance(sim.AllTable1TypeIDs())
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		World:    world,
		Taxonomy: alerts.NewTable1Taxonomy(),
		TypeIDs:  sim.AllTable1TypeIDs(),
		Instance: inst,
		Budget:   50,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) {
			return []float64{1, 1, 1, 1, 1, 1, 1}, nil
		}),
		FollowPrimary: "http://127.0.0.1:1",
	})
	if err == nil || !strings.Contains(err.Error(), "data dir") {
		t.Fatalf("New without DataDir but with FollowPrimary: err %v", err)
	}
}
