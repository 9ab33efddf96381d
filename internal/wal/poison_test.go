package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/obs"
)

var errDisk = errors.New("disk on fire")

// failOn returns a fault hook that fails every operation of kind op.
func failOn(op FaultOp) func(FaultOp) error {
	return func(got FaultOp) error {
		if got == op {
			return errDisk
		}
		return nil
	}
}

// requirePoisoned checks that Append, Snapshot and Sync all return the
// stored failure, with the fault hook already removed.
func requirePoisoned(t *testing.T, j *Journal) {
	t.Helper()
	j.SetFault(nil)
	if _, err := j.Append(Record{Kind: KindMeta}); !errors.Is(err, errDisk) {
		t.Fatalf("Append after the failure: %v, want the stored error", err)
	}
	if err := j.Snapshot([]byte("{}")); !errors.Is(err, errDisk) {
		t.Fatalf("Snapshot after the failure: %v, want the stored error", err)
	}
	if err := j.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("Sync after the failure: %v, want the stored error", err)
	}
}

// TestFailedFsyncPoisons: a failed group-commit fsync reaches its waiter,
// keeps the durable cursor at the last good sync, and poisons the journal.
func TestFailedFsyncPoisons(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendAll(t, j, sampleRecords()[:3])
	good, goodRecs := j.DurableCursor(), j.DurableRecords()

	j.SetFault(failOn(FaultSync))
	wait, err := j.Append(Record{Kind: KindQuit, Employee: 9})
	if err != nil {
		t.Fatalf("append before the sync: %v", err)
	}
	if err := wait(); !errors.Is(err, errDisk) {
		t.Fatalf("group-commit wait: %v, want the fsync failure", err)
	}
	requirePoisoned(t, j)
	if got := j.DurableCursor(); got != good {
		t.Fatalf("durable cursor moved to %v after a failed fsync, want %v", got, good)
	}
	if got := j.DurableRecords(); got != goodRecs {
		t.Fatalf("durable records %d after a failed fsync, want %d", got, goodRecs)
	}
}

// TestFailedIntervalTickPoisons: under FsyncInterval nobody waits on the
// timer's fsync, and its failure must still reach the next Append.
func TestFailedIntervalTickPoisons(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Fsync: FsyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendAll(t, j, sampleRecords()[:2])
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	good := j.DurableCursor()
	j.SetFault(failOn(FaultSync))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := j.Append(Record{Kind: KindMeta}); errors.Is(err, errDisk) {
			break
		} else if err != nil {
			t.Fatalf("append: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("a failing interval fsync never surfaced to Append")
		}
		time.Sleep(time.Millisecond)
	}
	requirePoisoned(t, j)
	if got := j.DurableCursor(); got != good {
		t.Fatalf("durable cursor moved to %v after a failed tick, want %v", got, good)
	}
}

// TestFailedWriteClosesWithoutFlush: after a failed write the buffered
// frames never reach the segment, not even from Close once the disk is
// healthy again, and Close reports the failure.
func TestFailedWriteClosesWithoutFlush(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, sampleRecords()[:3])
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	good := j.DurableCursor()
	appendAll(t, j, sampleRecords()[3:5])
	j.SetFault(failOn(FaultWrite))
	if err := j.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("Sync over a failing write: %v, want the write failure", err)
	}
	requirePoisoned(t, j)
	if err := j.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("Close of a poisoned journal: %v, want the stored error", err)
	}
	info, err := os.Stat(filepath.Join(dir, segmentName(good.Seg)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != good.Off {
		t.Fatalf("segment holds %d bytes after the poisoned close, want the %d of the last good sync", info.Size(), good.Off)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 3 {
		t.Fatalf("recovered %d records, want the 3 synced before the failure", rec.Records)
	}
}

// TestOpenSyncsRecoveredTail: Open fsyncs the newest recovered segment
// before its durable cursor covers it, and a fresh directory costs no
// fsync.
func TestOpenSyncsRecoveredTail(t *testing.T) {
	fsyncs := func(reg *obs.Registry) uint64 {
		return reg.Histogram(MetricFsyncSeconds, "", obs.DefTimeBuckets).Count()
	}
	dir := t.TempDir()
	reg := obs.NewRegistry()
	j, _, err := Open(dir, Options{Fsync: FsyncNone, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n := fsyncs(reg); n != 0 {
		t.Fatalf("Open of a fresh directory ran %d fsyncs, want 0", n)
	}
	appendAll(t, j, sampleRecords()[:3])
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	reg = obs.NewRegistry()
	j, rec, err := Open(dir, Options{Fsync: FsyncNone, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := fsyncs(reg); n != 1 {
		t.Fatalf("Open over a recovered segment ran %d fsyncs, want 1", n)
	}
	if rec.Records != 3 || j.DurableRecords() != 3 {
		t.Fatalf("recovered %d records, durable %d; want 3 and 3", rec.Records, j.DurableRecords())
	}
}
