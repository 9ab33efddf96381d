package server

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/faultinject"
	"github.com/auditgames/sag/internal/wal"
)

// The journal-failure consistency suite: every mutation handler is driven
// into a journal failure — a segment write or fsync failing under the
// Server's journal fault point — and the server must answer 500, unload the
// tenant, and afterwards serve byte-for-byte what a crash recovery of the
// same directory serves: a failed request's outcome is whatever reached
// disk, in memory exactly as on disk.
// (postRaw, the byte-compare helper, lives in replication_test.go.)

// copyTree clones a data dir so a "crash-recovered" server can boot from the
// exact bytes the live server had durable, without sharing file handles.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		blob, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, blob, 0o644)
	})
	if err != nil {
		t.Fatalf("copying data dir: %v", err)
	}
}

// alwaysFail is a fault point that fails every operation it guards.
func alwaysFail() *faultinject.Point {
	return faultinject.New("journal", faultinject.Config{Seed: 1, ErrorRate: 1})
}

// faultOps are the segment operations the suite fails, by name.
var faultOps = []struct {
	name string
	op   wal.FaultOp
}{{"write", wal.FaultWrite}, {"fsync", wal.FaultSync}}

// requireSameAsReplay boots a "crash-recovered" twin from a byte copy of
// dir (no clean shutdown: replay is all it gets) and requires the live
// server's /v1/status and /v1/cycle/summary, the next three identical
// accesses — every signal draw included — and the audit plan to match the
// twin's byte for byte.
func requireSameAsReplay(t *testing.T, ts *httptest.Server, dir string, bgE, bgP int) {
	t.Helper()
	liveStatus := mustGetRaw(t, ts, "/v1/status")
	liveSummary := mustGetRaw(t, ts, "/v1/cycle/summary")
	dir2 := t.TempDir()
	copyTree(t, dir, dir2)
	_, ts2, _, _ := durableFixture(t, dir2, nil)
	if got := mustGetRaw(t, ts2, "/v1/status"); got != liveStatus {
		t.Fatalf("status diverges from crash replay:\nlive:      %s\nrecovered: %s", liveStatus, got)
	}
	if got := mustGetRaw(t, ts2, "/v1/cycle/summary"); got != liveSummary {
		t.Fatalf("summary diverges from crash replay:\nlive:      %s\nrecovered: %s", liveSummary, got)
	}
	for i := 0; i < 3; i++ {
		req := AccessRequest{EmployeeID: bgE, PatientID: bgP}
		c1, r1, _ := postRaw(t, ts, "/v1/access", req)
		c2, r2, _ := postRaw(t, ts2, "/v1/access", req)
		if c1 != c2 || r1 != r2 {
			t.Fatalf("access %d diverges:\nlive:      %d %s\nrecovered: %d %s", i, c1, r1, c2, r2)
		}
	}
	// The audit plan is the cycle's final word: its sampling seed folds in
	// the access count, so it diverges loudly if any failed request was
	// half-remembered.
	c1, p1, _ := postRaw(t, ts, "/v1/cycle/close", CloseRequest{})
	c2, p2, _ := postRaw(t, ts2, "/v1/cycle/close", CloseRequest{})
	if c1 != c2 || p1 != p2 {
		t.Fatalf("audit plans diverge:\nlive:      %d %s\nrecovered: %d %s", c1, p1, c2, p2)
	}
}

func TestJournalFaultLeavesRecoverableState(t *testing.T) {
	scenarios := []struct {
		name string
		// prep runs with the fault disarmed (extra state some scenarios need).
		prep func(t *testing.T, ts *httptest.Server, bgE, bgP int)
		// hit sends the request whose journal write or fsync will fail.
		hit func(t *testing.T, ts *httptest.Server, bgE, bgP int) int
	}{
		{
			// Gamed alert: the engine commits and journals through its hook.
			name: "decision",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
			},
		},
		{
			// Benign access: a bare-access meta record.
			name: "benign-meta",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil)
			},
		},
		{
			// Malformed access (unknown employee): journaled, then answered
			// 400 — the journal failure must win.
			name: "malformed-meta",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/access", AccessRequest{EmployeeID: 1 << 20, PatientID: 0}, nil)
			},
		},
		{
			// Flagged quitter's alert: an alerted, warned meta record.
			name: "flagged-meta",
			prep: func(t *testing.T, ts *httptest.Server, bgE, bgP int) {
				if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE}, nil); code != http.StatusOK {
					t.Fatalf("prep quit status %d", code)
				}
			},
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
			},
		},
		{
			// First quit: the KindQuit record.
			name: "quit",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/quit", QuitRequest{EmployeeID: 5}, nil)
			},
		},
		{
			// Cycle close: the plan must not be drawn from unjournaled state.
			name: "close",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/cycle/close", CloseRequest{}, nil)
			},
		},
		{
			// Cycle open: the old cycle must survive unless the record did.
			name: "new-cycle",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: 40}, nil)
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, fo := range faultOps {
				t.Run(fo.name, func(t *testing.T) {
					dir := t.TempDir()
					srv, ts, bgE, bgP := durableFixture(t, dir, nil)

					// Warm traffic across record kinds, fault disarmed.
					for i := 0; i < 4; i++ {
						if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
							t.Fatalf("warm access status %d", code)
						}
					}
					post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil)
					if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: 3}, nil); code != http.StatusOK {
						t.Fatalf("warm quit status %d", code)
					}
					if sc.prep != nil {
						sc.prep(t, ts, bgE, bgP)
					}

					srv.SetJournalFault(fo.op, alwaysFail())
					if code := sc.hit(t, ts, bgE, bgP); code != http.StatusInternalServerError {
						t.Fatalf("faulted %s request: status %d, want 500", sc.name, code)
					}
					srv.SetJournalFault(fo.op, nil)
					requireSameAsReplay(t, ts, dir, bgE, bgP)
				})
			}
		})
	}
}

// mustGetRaw is getRaw asserting 200.
func mustGetRaw(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	code, raw := getRaw(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, raw)
	}
	return raw
}

// TestJournalFaultUnloadMetric: a journal failure is visible as one
// box-wide counter and a log line naming the tenant, and the tenant serves
// again on the next request.
func TestJournalFaultUnloadMetric(t *testing.T) {
	logs := &logBuf{}
	srv, ts, bgE, bgP := durableFixture(t, t.TempDir(), logs)
	srv.SetJournalFault(wal.FaultWrite, alwaysFail())
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusInternalServerError {
		t.Fatalf("faulted decision: status %d, want 500", code)
	}
	srv.SetJournalFault(wal.FaultWrite, nil)
	body := mustGetRaw(t, ts, "/v1/metrics")
	if !strings.Contains(body, "\n"+MetricJournalFailuresTotal+" 1\n") {
		t.Fatalf("metrics export lacks an unlabeled %s of 1", MetricJournalFailuresTotal)
	}
	if !logs.contains("tenant " + DefaultTenantID + ": journal failed") {
		t.Fatalf("no log line names the failed tenant: %q", logs.lines)
	}
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
		t.Fatalf("access after the reload: status %d, want 200", code)
	}
}

// TestJournalFaultIntervalTick: under fsync=interval accesses are
// acknowledged before any fsync and nobody waits on the timer's, so a
// failed tick must still poison the journal: a later mutation on the
// tenant answers 500, and the one after it is served by an instance
// reloaded from disk.
func TestJournalFaultIntervalTick(t *testing.T) {
	srv, ts, bgE, bgP := replicaFixture(t, t.TempDir(), nil, func(cfg *Config) { cfg.Fsync = wal.FsyncInterval })
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
		t.Fatalf("warm access status %d", code)
	}
	srv.SetJournalFault(wal.FaultSync, alwaysFail())
	deadline := time.Now().Add(10 * time.Second)
	for {
		code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil)
		if code == http.StatusInternalServerError {
			break
		}
		if code != http.StatusOK {
			t.Fatalf("access before the failed tick surfaced: status %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("a failing interval fsync never surfaced to a mutation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.SetJournalFault(wal.FaultSync, nil)
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil); code != http.StatusOK {
		t.Fatalf("mutation after the reload: status %d, want 200", code)
	}
}

// TestJournalFaultIntermittent hammers one tenant from two concurrent
// clients with a 30% fsync failure rate, so requests blocked on a failed
// group commit race the request that unloads the tenant. The surviving
// state must still equal its own crash replay.
func TestJournalFaultIntermittent(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := durableFixture(t, dir, nil)
	srv.SetJournalFault(wal.FaultSync, faultinject.New("journal", faultinject.Config{Seed: 7, ErrorRate: 0.3}))
	const clients, perClient = 2, 20
	var oks, fails atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var path string
				var body any
				switch i % 4 {
				case 0, 1:
					path, body = "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}
				case 2:
					path, body = "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}
				case 3:
					path, body = "/v1/quit", QuitRequest{EmployeeID: (c*perClient + i) % 7}
				}
				code, err := postCode(ts, path, body)
				switch {
				case err != nil:
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				case code == http.StatusOK:
					oks.Add(1)
				case code == http.StatusInternalServerError:
					fails.Add(1)
				default:
					t.Errorf("client %d request %d: unexpected status %d", c, i, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if oks.Load() == 0 || fails.Load() == 0 {
		t.Fatalf("want a mix of successes and injected failures, got %d ok / %d failed", oks.Load(), fails.Load())
	}
	srv.SetJournalFault(wal.FaultSync, nil)
	requireSameAsReplay(t, ts, dir, bgE, bgP)
}

// postCode posts a JSON body and returns the status code; unlike post it
// is safe to call from goroutines other than the test's.
func postCode(ts *httptest.Server, path string, body any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}
