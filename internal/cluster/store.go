package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/wal"
)

// Store is the coordinator's durable truth: its job records, held in
// memory and (when opened with a data directory) persisted through an
// append-only WAL. Every mutation is logged before it is visible; a
// coordinator restarted on the same directory replays the log and
// carries on. Opened without a directory the store is memory-only —
// same semantics, no durability. The fleet is not stored: it is the
// coordinator's -workers list.
//
// Record encoding: one type byte ('J' job, 'C' checkpoint) followed by
// the record's canonical JSON. Mutations
// are whole-record upserts, so replay is a pure "last write wins" fold;
// a checkpoint record carries the entire folded state and resets it,
// which is what lets wal.Log.Compact bound replay work.
type Store struct {
	mu  sync.Mutex
	log *wal.Log

	jobs   map[string]*JobRecord
	jobSeq uint64 // coordinator-local job ID counter

	compactEvery  uint64
	sinceCompact  uint64
	replayedJobs  int
	recoveredJobs int
}

// JobRecord is one tracked job. ID is the client-visible identifier,
// assigned by the coordinator and stable across worker failover and
// coordinator restarts; Worker/Local name the current assignment.
// Records written while sweeps had records of their own also carry
// "batch" and "index" fields, which decoding ignores.
type JobRecord struct {
	ID    string          `json:"id"`
	Spec  service.JobSpec `json:"spec"`
	Key   string          `json:"key"`
	State service.State   `json:"state"`
	// Worker is the serving worker's URL, Local its job ID on that
	// worker. Empty while the job awaits (re-)placement. A recovered
	// job whose worker is no longer in the fleet fails over; so does
	// one written before records named workers by URL ("w0").
	Worker string `json:"worker,omitempty"`
	Local  string `json:"local,omitempty"`
	// Terminal outcome.
	Hash   string      `json:"hash,omitempty"`
	Cached bool        `json:"cached,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// storeState is the checkpoint payload: the whole folded state.
// Checkpoints of older logs also carry "batch_seq", "batches" and
// "workers", which decoding ignores.
type storeState struct {
	JobSeq uint64      `json:"job_seq"`
	Jobs   []JobRecord `json:"jobs"`
}

const (
	recJob        = 'J'
	recBatch      = 'B' // a sweep record of older logs; replay skips it
	recWorker     = 'W' // a fleet-membership record of older logs; replay skips it
	recCheckpoint = 'C'
)

// StoreOptions tunes durability. Zero values pick defaults.
type StoreOptions struct {
	// Dir is the WAL directory; empty means memory-only.
	Dir string
	// WAL tunes segment rotation and fsync.
	WAL wal.Options
	// CompactEvery writes a checkpoint record and drops old segments
	// after this many appends (default 512).
	CompactEvery uint64
}

// OpenStore opens (or creates) the store, replaying any existing WAL.
func OpenStore(opts StoreOptions) (*Store, error) {
	s := &Store{
		jobs:         make(map[string]*JobRecord),
		compactEvery: opts.CompactEvery,
	}
	if s.compactEvery == 0 {
		s.compactEvery = 512
	}
	if opts.Dir == "" {
		return s, nil
	}
	log, err := wal.Open(opts.Dir, opts.WAL, s.fold)
	if err != nil {
		return nil, err
	}
	s.log = log
	s.replayedJobs = len(s.jobs)
	for _, j := range s.jobs {
		if !j.State.Terminal() {
			s.recoveredJobs++
		}
	}
	// Collapse the replayed history into one checkpoint so every
	// restart starts from a compact log.
	if err := s.compactLocked(); err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

// fold applies one replayed WAL record to the in-memory state.
func (s *Store) fold(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("cluster: empty WAL record")
	}
	body := rec[1:]
	switch rec[0] {
	case recJob:
		var j JobRecord
		if err := json.Unmarshal(body, &j); err != nil {
			return fmt.Errorf("cluster: job record: %w", err)
		}
		s.jobs[j.ID] = &j
		var n uint64
		if _, err := fmt.Sscanf(j.ID, "c%d", &n); err == nil && n > s.jobSeq {
			s.jobSeq = n
		}
	case recBatch, recWorker:
		// A batch's points are job records of their own, replayed as
		// jobs; the fleet is the -workers list.
	case recCheckpoint:
		var st storeState
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("cluster: checkpoint record: %w", err)
		}
		s.jobs = make(map[string]*JobRecord, len(st.Jobs))
		for i := range st.Jobs {
			j := st.Jobs[i]
			s.jobs[j.ID] = &j
		}
		s.jobSeq = st.JobSeq
	default:
		return fmt.Errorf("cluster: unknown WAL record type %#x", rec[0])
	}
	return nil
}

// appendLocked logs one typed record. Compaction is NOT triggered here:
// checkpoints snapshot the in-memory state, so the caller must apply its
// mutation first and then call maybeCompactLocked — compacting before
// the apply would write a checkpoint missing the record just appended
// and then delete that record with the old segments.
func (s *Store) appendLocked(kind byte, v any) error {
	if s.log == nil {
		return nil
	}
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := s.log.Append(append([]byte{kind}, body...)); err != nil {
		return err
	}
	s.sinceCompact++
	return nil
}

// maybeCompactLocked checkpoints on the configured cadence.
func (s *Store) maybeCompactLocked() error {
	if s.log == nil || s.sinceCompact < s.compactEvery {
		return nil
	}
	return s.compactLocked()
}

// compactLocked checkpoints the folded state and drops old segments.
// Terminal jobs stay in the checkpoint (they answer pre-crash status
// queries); the bounded retention applied by the coordinator keeps the
// set from growing without limit.
func (s *Store) compactLocked() error {
	if s.log == nil {
		return nil
	}
	st := storeState{JobSeq: s.jobSeq}
	for _, j := range s.jobs {
		st.Jobs = append(st.Jobs, *j)
	}
	// Canonical order: checkpoints of equal state are byte-identical.
	sort.Slice(st.Jobs, func(i, j int) bool { return st.Jobs[i].ID < st.Jobs[j].ID })
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if err := s.log.Compact(append([]byte{recCheckpoint}, body...)); err != nil {
		return err
	}
	s.sinceCompact = 0
	return nil
}

// NextJobID mints a coordinator-scoped job ID ("c00000001"). The
// counter survives restarts via the WAL, so IDs never collide with
// pre-crash jobs.
func (s *Store) NextJobID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobSeq++
	return fmt.Sprintf("c%08d", s.jobSeq)
}

// PutJob durably upserts a job record. A terminal record is final:
// PutJob over one writes nothing and returns service.ErrTerminal, so a
// driver's late write never replaces the record Cancel stored.
func (s *Store) PutJob(j JobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.jobs[j.ID]; ok && cur.State.Terminal() {
		return fmt.Errorf("%w: %s", service.ErrTerminal, j.ID)
	}
	if err := s.appendLocked(recJob, j); err != nil {
		return err
	}
	cp := j
	s.jobs[j.ID] = &cp
	return s.maybeCompactLocked()
}

// Job returns a copy of a job record.
func (s *Store) Job(id string) (JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobRecord{}, false
	}
	return *j, true
}

// Jobs returns copies of all job records, ordered by ID.
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DropJobs removes terminal job records (retention enforcement).
func (s *Store) DropJobs(ids []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := false
	for _, id := range ids {
		j, ok := s.jobs[id]
		if !ok || !j.State.Terminal() {
			continue
		}
		delete(s.jobs, id)
		dropped = true
	}
	if !dropped {
		return nil
	}
	// Deletion has no incremental record type; fold it into the next
	// checkpoint immediately (cheap at retention cadence).
	return s.compactLocked()
}

// StoreStats reports durability state, published on the coordinator's
// /metrics (bump_wal_*, bump_cluster_tracked_jobs).
type StoreStats struct {
	WAL           wal.Stats
	Durable       bool
	Jobs          int
	ReplayedJobs  int
	RecoveredJobs int
}

// Stats snapshots the store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Durable:       s.log != nil,
		Jobs:          len(s.jobs),
		ReplayedJobs:  s.replayedJobs,
		RecoveredJobs: s.recoveredJobs,
	}
	if s.log != nil {
		st.WAL = s.log.Stats()
	}
	return st
}

// Close closes the underlying WAL (no final checkpoint: Close must be
// indistinguishable from a crash so recovery is exercised on every
// restart path, not only the unlucky ones).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
