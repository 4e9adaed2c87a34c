package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bump/internal/service"
	"bump/internal/wal"
)

func openTestStore(t *testing.T, dir string, opts StoreOptions) *Store {
	t.Helper()
	opts.Dir = dir
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreDurableRoundTrip: job records, terminal and in flight, and
// the job ID counter survive a close/reopen cycle on the same
// directory.
func TestStoreDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	const worker = "http://a:8344"

	doneID := s.NextJobID()
	done := JobRecord{ID: doneID, Spec: sweepSpec("web-search", 1), Key: "k1",
		State: service.StateDone, Worker: worker, Hash: "h1", Cached: true}
	if err := s.PutJob(done); err != nil {
		t.Fatal(err)
	}
	liveID := s.NextJobID()
	live := JobRecord{ID: liveID, Spec: sweepSpec("web-search", 2), Key: "k1",
		State: service.StateRunning, Worker: worker, Local: "j7"}
	if err := s.PutJob(live); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	got, ok := s2.Job(doneID)
	if !ok || got.State != service.StateDone || got.Hash != "h1" || !got.Cached || got.Worker != worker {
		t.Fatalf("terminal job after reopen: ok=%v %+v", ok, got)
	}
	got, ok = s2.Job(liveID)
	if !ok || got.State != service.StateRunning || got.Worker != worker || got.Local != "j7" {
		t.Fatalf("in-flight job after reopen: ok=%v %+v", ok, got)
	}

	// The counter resumes past every persisted ID — no collisions with
	// pre-crash jobs.
	if next := s2.NextJobID(); next != "c00000003" {
		t.Fatalf("job counter resumed at %s, want c00000003", next)
	}

	st := s2.Stats()
	if !st.Durable || st.ReplayedJobs != 2 || st.RecoveredJobs != 1 {
		t.Fatalf("reopen stats: %+v", st)
	}
	if st.WAL.Replayed == 0 {
		t.Fatal("reopen replayed no WAL records")
	}
}

// TestStoreReplaysLifecycleEraWorkerRecord: a data dir written while
// the store kept fleet membership, its worker records carrying a
// lifecycle, still replays. Its W record and its checkpoint's "workers"
// are skipped, and a job naming its worker by ID ("w0") comes back as
// written, for the coordinator to fail over. Both hold through the log
// and through the checkpoint the first reopen compacts it into.
func TestStoreReplaysLifecycleEraWorkerRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	for _, rec := range []string{
		`C{"job_seq":0,"workers":[{"id":"w1","url":"http://b:8344"}],"jobs":null}`,
		`W{"id":"w0","url":"http://a:8344","lifecycle":"draining"}`,
		`J{"id":"c00000001","spec":{"workload":"web-search","mechanism":"bump"},"key":"k1","state":"running","worker":"w0","local":"j3"}`,
	} {
		if err := s.log.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for pass := range 2 {
		s := openTestStore(t, dir, StoreOptions{})
		j, ok := s.Job("c00000001")
		if !ok || j.State != service.StateRunning || j.Worker != "w0" || j.Local != "j3" {
			t.Fatalf("reopen %d: job record ok=%v %+v", pass, ok, j)
		}
		if st := s.Stats(); st.ReplayedJobs != 1 || st.RecoveredJobs != 1 {
			t.Fatalf("reopen %d: stats %+v, want the job replayed and recovered", pass, st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreMemoryOnly: with no directory the store keeps identical
// semantics, just without durability.
func TestStoreMemoryOnly(t *testing.T) {
	s, err := OpenStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := s.NextJobID()
	if err := s.PutJob(JobRecord{ID: id, State: service.StateQueued}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(id); !ok {
		t.Fatal("memory-only store lost a job")
	}
	if st := s.Stats(); st.Durable {
		t.Fatal("memory-only store claims durability")
	}
}

// TestStoreReplaysBatchEraRecords: a data dir written while sweeps had
// records of their own still replays. The B record is skipped and its
// point, a J record carrying "batch" and "index", comes back as an
// ordinary job, through the log and through the checkpoint the first
// reopen compacts it into.
func TestStoreReplaysBatchEraRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	for _, rec := range []string{
		`B{"id":"b00000001","specs":[{"workload":"web-search","mechanism":"bump"}],"jobs":["c00000001"]}`,
		`J{"id":"c00000001","spec":{"workload":"web-search","mechanism":"bump"},"key":"k1","state":"running","worker":"w0","local":"j3","batch":"b00000001","index":0}`,
	} {
		if err := s.log.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for pass := range 2 {
		s := openTestStore(t, dir, StoreOptions{})
		j, ok := s.Job("c00000001")
		if !ok || j.State != service.StateRunning || j.Worker != "w0" || j.Local != "j3" || j.Spec.Workload != "web-search" {
			t.Fatalf("reopen %d: point record ok=%v %+v", pass, ok, j)
		}
		if st := s.Stats(); st.ReplayedJobs != 1 || st.RecoveredJobs != 1 {
			t.Fatalf("reopen %d: stats %+v, want the point replayed and recovered", pass, st)
		}
		if next := s.NextJobID(); next != "c00000002" {
			t.Fatalf("reopen %d: job counter resumed at %s, want c00000002", pass, next)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreRetention: DropJobs removes only terminal jobs — live jobs
// are immune — and the drop survives reopen.
func TestStoreRetention(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	done := JobRecord{ID: s.NextJobID(), State: service.StateDone}
	live := JobRecord{ID: s.NextJobID(), State: service.StateRunning}
	for _, j := range []JobRecord{done, live} {
		if err := s.PutJob(j); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.DropJobs([]string{done.ID, live.ID}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(done.ID); ok {
		t.Fatal("terminal job survived DropJobs")
	}
	if _, ok := s.Job(live.ID); !ok {
		t.Fatal("DropJobs removed a non-terminal job")
	}
	s.Close()

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if _, ok := s2.Job(done.ID); ok {
		t.Fatal("dropped job resurrected by replay")
	}
	if _, ok := s2.Job(live.ID); !ok {
		t.Fatal("live job lost across reopen")
	}
}

// TestStoreCompactionBoundsReplay: the checkpoint cadence keeps both the
// on-disk segment count and the records replayed at the next open small,
// no matter how many mutations the log has absorbed.
func TestStoreCompactionBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{CompactEvery: 8, WAL: wal.Options{SegmentBytes: 4096}})
	const n = 100
	for i := 0; i < n; i++ {
		id := s.NextJobID()
		if err := s.PutJob(JobRecord{ID: id, Spec: sweepSpec("web-search", i), State: service.StateDone}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.WAL.Compactions == 0 {
		t.Fatal("no compaction despite CompactEvery=8")
	}
	if st.WAL.Segments > 3 {
		t.Fatalf("%d live segments after compaction", st.WAL.Segments)
	}
	s.Close()

	s2 := openTestStore(t, dir, StoreOptions{CompactEvery: 8})
	defer s2.Close()
	if got := len(s2.Jobs()); got != n {
		t.Fatalf("%d jobs after reopen, want %d", got, n)
	}
	// Replay work is bounded by the checkpoint: one checkpoint record
	// plus at most CompactEvery tail records.
	if r := s2.Stats().WAL.Replayed; r > 16 {
		t.Fatalf("reopen replayed %d records; compaction is not bounding replay", r)
	}
}

// TestStoreTornTailHealed: a torn final record (the classic crash during
// append) is truncated away on open; every complete record survives.
func TestStoreTornTailHealed(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	ids := make([]string, 3)
	for i := range ids {
		ids[i] = s.NextJobID()
		if err := s.PutJob(JobRecord{ID: ids[i], State: service.StateDone, Hash: fmt.Sprintf("h%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	for _, id := range ids {
		if _, ok := s2.Job(id); !ok {
			t.Fatalf("complete record %s lost healing the torn tail", id)
		}
	}
	if !s2.Stats().WAL.TornTail {
		t.Fatal("torn tail not reported in stats")
	}
}
