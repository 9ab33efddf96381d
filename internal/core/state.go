package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/game"
)

// DecisionRecord is the durable form of one committed Decision: every field
// the engine needs to reconstruct its budget chain, its RNG position, and
// its cycle summary after a restart. It deliberately omits the solver
// artifacts (the full SSE result, the signaling scheme) — those are pure
// functions of the game state and are not needed to continue the cycle.
type DecisionRecord struct {
	// Seq is the decision's position in the cycle (0-based commit order).
	Seq uint64
	// Type and Time identify the alert.
	Type int
	Time time.Duration
	// Warned is the sampled signal — persisted, not re-sampled, on replay,
	// which is what makes recovery bit-identical.
	Warned     bool
	Vacuous    bool
	AppliedSAG bool
	Fallback   fallback.Level
	Theta      float64
	// AuditCharge is the signal-conditional audit probability the budget
	// was charged for; replay recharges exactly it.
	AuditCharge  float64
	BudgetBefore float64
	BudgetAfter  float64
	SSEUtility   float64
	OSSPUtility  float64
}

// JournalFunc is the engine's durability hook. When configured, it is
// invoked under the engine's budget lock immediately after each decision
// commits — so invocation order is exactly commit order, which is exactly
// budget-chain order. The hook must only enqueue (no I/O waits, no locks
// ordered before the engine's): group-commit journals buffer the record and
// return a wait. ProcessContext invokes the returned wait (if non-nil)
// after releasing the lock and before returning, so the response is not
// produced until the record is as durable as the journal's policy promises.
//
// An enqueue or wait error is returned to the Process caller after the
// decision has committed in memory, so the engine may now hold a decision
// its journal does not. The caller must stop serving from the engine and
// rebuild it from the journal: the HTTP server unloads the tenant, and the
// next request restores it from disk. That rebuild is the only rollback.
type JournalFunc func(rec DecisionRecord) (wait func() error, err error)

// record converts a committed decision to its durable form. The caller
// holds e.mu and has already appended d to e.decisions.
func (e *Engine) recordLocked(d *Decision) DecisionRecord {
	return DecisionRecord{
		Seq:          uint64(len(e.decisions) - 1),
		Type:         d.Alert.Type,
		Time:         d.Alert.Time,
		Warned:       d.Warned,
		Vacuous:      d.Vacuous,
		AppliedSAG:   d.AppliedSAG,
		Fallback:     d.Fallback,
		Theta:        d.Theta,
		AuditCharge:  d.AuditCharge,
		BudgetBefore: d.BudgetBefore,
		BudgetAfter:  d.BudgetAfter,
		SSEUtility:   d.SSEUtility,
		OSSPUtility:  d.OSSPUtility,
	}
}

// restore converts a durable record back into the engine's in-memory form.
// The solver artifacts are gone: SSE is nil and Scheme is the zero value,
// which Summary, CloseCycle, and the budget chain never consult — they need
// only the fields the record carries.
func (r DecisionRecord) restore() Decision {
	return Decision{
		Alert:        Alert{Type: r.Type, Time: r.Time},
		BudgetBefore: r.BudgetBefore,
		BudgetAfter:  r.BudgetAfter,
		Theta:        r.Theta,
		Warned:       r.Warned,
		AuditCharge:  r.AuditCharge,
		SSEUtility:   r.SSEUtility,
		OSSPUtility:  r.OSSPUtility,
		AppliedSAG:   r.AppliedSAG,
		Vacuous:      r.Vacuous,
		Fallback:     r.Fallback,
	}
}

// SSEState is the durable subset of a game.Result that the degraded
// last-good rung consults: the committed coverage vector, the attacker's
// best response, and both equilibrium utilities.
type SSEState struct {
	Coverage        []float64 `json:"coverage"`
	BestType        int       `json:"best_type"`
	DefenderUtility float64   `json:"defender_utility"`
	AttackerUtility float64   `json:"attacker_utility"`
}

// EngineState is a full point-in-time export of the engine's mutable cycle
// state — everything a fresh engine (same Config, same seed) needs to
// continue the cycle bit-identically. It is the payload of WAL snapshot
// records.
type EngineState struct {
	Budget  float64 `json:"budget"`
	Initial float64 `json:"initial"`
	Cycle   uint64  `json:"cycle"`
	// RNGDraws counts the Float64 draws consumed from the engine's RNG
	// stream; restore fast-forwards a freshly seeded RNG past them so the
	// next sampled signal lands on the same draw it would have uninterrupted.
	RNGDraws  uint64           `json:"rng_draws"`
	Decisions []DecisionRecord `json:"decisions"`
	LastRates []float64        `json:"last_rates,omitempty"`
	LastSSE   *SSEState        `json:"last_sse,omitempty"`
}

// ExportState captures the engine's mutable cycle state. It is a consistent
// snapshot: taken under the budget lock, so it never observes a half-
// committed decision. Callers must externally ensure no decision commits
// between the export and whatever journal position the snapshot is written
// at (the server drains in-flight requests first).
func (e *Engine) ExportState() EngineState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineState{
		Budget:    e.budget,
		Initial:   e.initial,
		Cycle:     e.cycle,
		RNGDraws:  e.rngDraws,
		Decisions: make([]DecisionRecord, len(e.decisions)),
	}
	for i := range e.decisions {
		d := &e.decisions[i]
		st.Decisions[i] = DecisionRecord{
			Seq:          uint64(i),
			Type:         d.Alert.Type,
			Time:         d.Alert.Time,
			Warned:       d.Warned,
			Vacuous:      d.Vacuous,
			AppliedSAG:   d.AppliedSAG,
			Fallback:     d.Fallback,
			Theta:        d.Theta,
			AuditCharge:  d.AuditCharge,
			BudgetBefore: d.BudgetBefore,
			BudgetAfter:  d.BudgetAfter,
			SSEUtility:   d.SSEUtility,
			OSSPUtility:  d.OSSPUtility,
		}
	}
	if e.lastRates != nil {
		st.LastRates = append([]float64(nil), e.lastRates...)
	}
	if e.lastSSE != nil {
		st.LastSSE = &SSEState{
			Coverage:        append([]float64(nil), e.lastSSE.Coverage...),
			BestType:        e.lastSSE.BestType,
			DefenderUtility: e.lastSSE.DefenderUtility,
			AttackerUtility: e.lastSSE.AttackerUtility,
		}
	}
	return st
}

// RestoreState loads an exported state into a freshly constructed engine.
// The engine must be pristine — same Config and RNG seed as the exporter,
// no decisions processed — because restore fast-forwards the RNG stream
// from its seed position and rebuilds the budget chain from zero. Restoring
// onto a used engine is an error, not a merge.
func (e *Engine) RestoreState(st EngineState) error {
	if st.Budget < 0 || math.IsNaN(st.Budget) || math.IsInf(st.Budget, 0) {
		return fmt.Errorf("core: restoring invalid budget %g", st.Budget)
	}
	for i, r := range st.Decisions {
		if uint64(i) != r.Seq {
			return fmt.Errorf("core: restoring decision out of order: seq %d at index %d", r.Seq, i)
		}
		if r.Type < 0 || r.Type >= e.inst.NumTypes() {
			return fmt.Errorf("core: restoring decision %d: type %d out of range [0,%d)", i, r.Type, e.inst.NumTypes())
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.decisions) != 0 || e.rngDraws != 0 {
		return errors.New("core: RestoreState requires a fresh engine")
	}
	e.budget = st.Budget
	e.initial = st.Initial
	e.cycle = st.Cycle
	e.decisions = make([]Decision, len(st.Decisions))
	for i, r := range st.Decisions {
		e.decisions[i] = r.restore()
	}
	if st.LastRates != nil {
		e.lastRates = append([]float64(nil), st.LastRates...)
	}
	if st.LastSSE != nil {
		e.lastSSE = &game.Result{
			Coverage:        append([]float64(nil), st.LastSSE.Coverage...),
			BestType:        st.LastSSE.BestType,
			DefenderUtility: st.LastSSE.DefenderUtility,
			AttackerUtility: st.LastSSE.AttackerUtility,
		}
	}
	// Fast-forward the RNG stream past the draws the exported run consumed,
	// so the next decision samples the draw it would have seen uninterrupted.
	if e.policy == PolicyOSSP {
		for i := uint64(0); i < st.RNGDraws; i++ {
			e.rng.Float64()
		}
	}
	e.rngDraws = st.RNGDraws
	e.met.budget.Set(e.budget)
	return nil
}

// ApplyDecision replays one journaled decision onto the engine during
// recovery: it re-applies the budget charge and the recorded signal without
// re-solving or re-sampling — the record is the committed truth. One RNG
// draw is burned (the draw the original commit consumed) so the stream
// stays aligned, and the estimator is advanced to the alert's offset so
// stateful estimators (knowledge rollback) observe the same query sequence
// as the uninterrupted run. Records must be applied in journal order.
func (e *Engine) ApplyDecision(r DecisionRecord) error {
	if r.Type < 0 || r.Type >= e.inst.NumTypes() {
		return fmt.Errorf("core: replaying decision: type %d out of range [0,%d)", r.Type, e.inst.NumTypes())
	}
	// Advance the estimator exactly as the live estimate() did. The live run
	// succeeded (a decision committed), so an error here means the estimator
	// itself lost state — surface it rather than silently diverging. The
	// degraded rungs never reached the estimator, so skip it for them.
	if r.Fallback == fallback.None {
		e.estMu.Lock()
		rates, err := e.est.FutureRates(r.Time)
		e.estMu.Unlock()
		if err != nil {
			return fmt.Errorf("core: replaying decision %d: estimator: %w", r.Seq, err)
		}
		e.mu.Lock()
		e.lastRates = append(e.lastRates[:0], rates...)
		e.mu.Unlock()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if want := uint64(len(e.decisions)); r.Seq != want {
		return fmt.Errorf("core: replaying decision out of order: seq %d, want %d", r.Seq, want)
	}
	if e.policy == PolicyOSSP {
		e.rng.Float64() // the draw the original commit sampled the signal with
		e.rngDraws++
	}
	e.budget = math.Max(0, r.BudgetAfter)
	e.decisions = append(e.decisions, r.restore())
	e.met.budget.Set(e.budget)
	return nil
}

// RNGDraws returns how many signal-sampling draws the engine has consumed
// this process lifetime (restored draws included). Used by snapshot tests.
func (e *Engine) RNGDraws() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rngDraws
}
