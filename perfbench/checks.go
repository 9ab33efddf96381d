package main

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/server"
)

// eps absorbs float formatting round trips in budget comparisons.
const eps = 1e-9

// checkAccess verifies one /v1/access answer: the alert flag and type match
// what the benchmark's own alerts engine assigns, and the remaining budget
// is within [0, budget] and not above floor — the lowest remaining budget
// any response of this tenant's cycle had reported before the request was
// sent. Budget only falls within a cycle, so a request sent after a
// response was received must never see more budget than that response.
func checkAccess(o *op, r *server.AccessResponse, floor float64) error {
	if r.Alert != o.alert {
		return fmt.Errorf("access %d→%d: alert=%v, rules say %v", o.emp, o.pat, r.Alert, o.alert)
	}
	if o.alert && r.TypeID != int(o.typ) {
		return fmt.Errorf("access %d→%d: alert type %d, rules say %d", o.emp, o.pat, r.TypeID, o.typ)
	}
	if !r.Alert && r.Warn {
		return fmt.Errorf("access %d→%d: warned without an alert", o.emp, o.pat)
	}
	if r.RemainingBudget < -eps || r.RemainingBudget > budget+eps {
		return fmt.Errorf("access %d→%d: remaining budget %g outside [0,%g]", o.emp, o.pat, r.RemainingBudget, budget)
	}
	if r.RemainingBudget > floor+eps {
		return fmt.Errorf("access %d→%d: remaining budget rose within the cycle: %g after %g", o.emp, o.pat, r.RemainingBudget, floor)
	}
	return nil
}

// cycleCounts is what the client counted for one tenant's open cycle.
type cycleCounts struct {
	Accesses, Alerts, Warned int
}

// checkStatus compares client counts with the server's /v1/status.
func checkStatus(tenant string, c cycleCounts, st *server.Status) error {
	if st.Accesses != c.Accesses || st.Alerts != c.Alerts || st.Warned != c.Warned {
		return fmt.Errorf("tenant %q: status counts accesses/alerts/warned %d/%d/%d, client counted %d/%d/%d",
			tenant, st.Accesses, st.Alerts, st.Warned, c.Accesses, c.Alerts, c.Warned)
	}
	if st.RemainingBudget < -eps || st.RemainingBudget > st.Budget+eps {
		return fmt.Errorf("tenant %q: remaining budget %g outside [0,%g]", tenant, st.RemainingBudget, st.Budget)
	}
	return nil
}

// checkSummary verifies a cycle summary: the budget spent is within the
// budget, and the engine's warnings are the client-counted ones.
func checkSummary(tenant string, c cycleCounts, s *core.CycleSummary) error {
	if s.BudgetSpent < -eps || s.BudgetSpent > budget+eps {
		return fmt.Errorf("tenant %q: budget spent %g outside [0,%g]", tenant, s.BudgetSpent, budget)
	}
	if s.Warnings != c.Warned {
		return fmt.Errorf("tenant %q: summary has %d warnings, client counted %d", tenant, s.Warnings, c.Warned)
	}
	return nil
}

// checkSame requires two response bodies to be byte-identical.
func checkSame(what string, want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s differs:\n  want %s\n  got  %s", what, bytes.TrimSpace(want), bytes.TrimSpace(got))
	}
	return nil
}

// failures collects failed output checks; the run is incorrect if any.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, err.Error())
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}
