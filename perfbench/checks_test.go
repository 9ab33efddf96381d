package main

import (
	"testing"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/server"
)

func TestCheckAccessRejectsTampering(t *testing.T) {
	alertOp := &op{kind: opAccess, emp: 401, pat: 2001, alert: true, typ: 3}
	benignOp := &op{kind: opAccess, emp: 1, pat: 2}
	good := server.AccessResponse{Alert: true, TypeID: 3, Warn: true, RemainingBudget: 40}
	if err := checkAccess(alertOp, &good, 41); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if err := checkAccess(benignOp, &server.AccessResponse{RemainingBudget: 40}, 40); err != nil {
		t.Fatalf("valid benign answer rejected: %v", err)
	}
	tampered := map[string]struct {
		o     *op
		r     server.AccessResponse
		floor float64
	}{
		"missed alert":    {alertOp, server.AccessResponse{RemainingBudget: 40}, 41},
		"spurious alert":  {benignOp, server.AccessResponse{Alert: true, TypeID: 1, RemainingBudget: 40}, 41},
		"wrong type":      {alertOp, server.AccessResponse{Alert: true, TypeID: 4, RemainingBudget: 40}, 41},
		"warn, no alert":  {benignOp, server.AccessResponse{Warn: true, RemainingBudget: 40}, 41},
		"budget rose":     {alertOp, server.AccessResponse{Alert: true, TypeID: 3, RemainingBudget: 41.5}, 41},
		"budget negative": {alertOp, server.AccessResponse{Alert: true, TypeID: 3, RemainingBudget: -1}, 41},
		"over budget":     {benignOp, server.AccessResponse{RemainingBudget: budget + 1}, budget + 2},
	}
	for name, c := range tampered {
		if checkAccess(c.o, &c.r, c.floor) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckStatusRejectsTampering(t *testing.T) {
	c := cycleCounts{Accesses: 10, Alerts: 5, Warned: 2}
	good := server.Status{Budget: 50, RemainingBudget: 44, Accesses: 10, Alerts: 5, Warned: 2}
	if err := checkStatus("t", c, &good); err != nil {
		t.Fatalf("valid status rejected: %v", err)
	}
	for name, mut := range map[string]func(*server.Status){
		"accesses":  func(s *server.Status) { s.Accesses++ },
		"alerts":    func(s *server.Status) { s.Alerts-- },
		"warned":    func(s *server.Status) { s.Warned++ },
		"overspent": func(s *server.Status) { s.RemainingBudget = -0.5 },
	} {
		s := good
		mut(&s)
		if checkStatus("t", c, &s) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckSummaryRejectsTampering(t *testing.T) {
	c := cycleCounts{Warned: 3}
	if err := checkSummary("t", c, &core.CycleSummary{Warnings: 3, BudgetSpent: 12}); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}
	if checkSummary("t", c, &core.CycleSummary{Warnings: 3, BudgetSpent: budget + 1}) == nil {
		t.Error("overspent budget accepted")
	}
	if checkSummary("t", c, &core.CycleSummary{Warnings: 4, BudgetSpent: 12}) == nil {
		t.Error("warning count mismatch accepted")
	}
}

func TestCheckSameRejectsAnyByte(t *testing.T) {
	a := []byte(`{"tenant":"t-1","accesses":10}` + "\n")
	if err := checkSame("status", a, append([]byte(nil), a...)); err != nil {
		t.Fatalf("identical bodies rejected: %v", err)
	}
	b := []byte(`{"tenant":"t-1","accesses":11}` + "\n")
	if checkSame("status", a, b) == nil {
		t.Error("differing bodies accepted")
	}
}
