package sim

import (
	"testing"

	"github.com/auditgames/sag/internal/obs"
)

// TestRunnerMetrics: replications share one registry and report
// per-replication throughput.
func TestRunnerMetrics(t *testing.T) {
	ds, err := BuildTable1Pipeline(PipelineConfig{
		Seed: 11, Days: 8, BackgroundPerDay: 40, PairsPerKind: 2,
		WorldEmployees: 40, WorldPatients: 160,
	}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Table1Instance([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := NewRunner(ds, Config{Instance: inst, Budget: 20, RollbackThreshold: -1, Seed: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	groups := Groups(8, 6) // 2 replications
	results, err := r.RunGroups(groups)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[MetricGroupsTotal]; got != uint64(len(groups)) {
		t.Fatalf("groups counter = %d, want %d", got, len(groups))
	}
	var alerts uint64
	for _, res := range results {
		alerts += uint64(len(res.Outcomes))
	}
	if got := snap.Counters[MetricAlertsTotal]; got != alerts {
		t.Fatalf("alerts counter = %d, want %d", got, alerts)
	}
	if hd := snap.Histograms[MetricGroupSeconds]; hd.Count != uint64(len(groups)) {
		t.Fatalf("group seconds count = %d, want %d", hd.Count, len(groups))
	}

	// No registry → no instrumentation, identical results.
	r2, err := NewRunner(ds, Config{Instance: inst, Budget: 20, RollbackThreshold: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := r2.RunGroups(groups)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].OfflineSSE != results[i].OfflineSSE || len(plain[i].Outcomes) != len(results[i].Outcomes) {
			t.Fatalf("metrics changed simulation results at group %d", i)
		}
	}
}
