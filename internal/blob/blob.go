// Package blob is a content-addressed, size-bounded checkpoint store:
// immutable blobs named by their digest (warm keys are hex
// snapshot-derived structural digests), written atomically
// (temp-file + rename), evicted LRU under a byte budget with
// ref-counted GC — a blob still being read is logically evicted
// immediately but physically deleted only when its last reader is
// done — and rebuilt from the directory on restart.
//
// The store backs sim.WarmStore (it satisfies sim.WarmBackend), giving
// warm checkpoints a life beyond one process: a worker restarted on
// the same directory (bumpd -warm-dir) restores its warmups from here
// instead of re-simulating them.
package blob

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Stats is a point-in-time view of the store.
type Stats struct {
	Blobs     int    `json:"blobs"`
	Bytes     int64  `json:"bytes"`
	Capacity  int64  `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
}

// entry tracks one blob. dead marks a logically evicted blob whose
// file lingers only for in-flight readers; its bytes are already off
// the budget.
type entry struct {
	size int64
	refs int
	dead bool
	seq  uint64
}

// Store is the content-addressed blob directory.
type Store struct {
	dir string
	max int64

	mu      sync.Mutex
	entries map[string]*entry
	bytes   int64
	clock   uint64
	stats   Stats
	closed  bool
}

// DefaultCapacity bounds the store when Open is given no budget: 1 GiB.
const DefaultCapacity = 1 << 30

// Open creates or reopens a blob directory, rebuilding the index from
// the files on disk (oldest-modified = coldest for LRU purposes) and
// sweeping any torn temp files from a previous crash.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultCapacity
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	s := &Store{
		dir:     dir,
		max:     maxBytes,
		entries: make(map[string]*entry),
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	type onDisk struct {
		key  string
		size int64
		mod  int64
	}
	var found []onDisk
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(dir, name)) // torn write from a crash
			continue
		}
		if !validKey(name) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{key: name, size: fi.Size(), mod: fi.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mod < found[j].mod })
	for _, f := range found {
		s.clock++
		s.entries[f.key] = &entry{size: f.size, seq: s.clock}
		s.bytes += f.size
	}
	s.evictLocked("")
	return s, nil
}

// validKey accepts lowercase-hex digest names (warm keys are 64 hex
// chars; shorter digests are tolerated, path metacharacters are not).
func validKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key) }

// Put stores data under key (idempotent: blobs are immutable, a
// re-put of a live key is a no-op). The write is atomic — temp file in
// the same directory, then rename — so readers never see a torn blob.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("blob: invalid key %q", key)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("blob: store closed")
	}
	if e, ok := s.entries[key]; ok {
		if e.dead {
			// Logically evicted but the file survives for a reader:
			// resurrect it instead of racing its deferred delete.
			e.dead = false
			s.bytes += e.size
			s.clock++
			e.seq = s.clock
			s.stats.Puts++
			s.evictLocked(key)
		}
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: write %s: %w", key, fmt.Errorf("%v; %v", werr, cerr))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok && !e.dead {
		os.Remove(tmp.Name())
		return nil // concurrent identical put won the race
	}
	// Rename under the lock, so no deferred delete can remove the file
	// between the rename and the index update below.
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: %w", err)
	}
	s.clock++
	s.entries[key] = &entry{size: int64(len(data)), seq: s.clock}
	s.bytes += int64(len(data))
	s.stats.Puts++
	s.evictLocked(key)
	return nil
}

// evictLocked enforces the byte budget, LRU first. Blobs with open
// readers are marked dead (off the budget, unreachable for new Gets)
// and their files deleted when the last reader finishes. keep is never
// evicted (the blob just inserted).
func (s *Store) evictLocked(keep string) {
	for s.bytes > s.max {
		victim := ""
		var ve *entry
		for k, e := range s.entries {
			if k == keep || e.dead {
				continue
			}
			if ve == nil || e.seq < ve.seq {
				victim, ve = k, e
			}
		}
		if ve == nil {
			return
		}
		s.bytes -= ve.size
		s.stats.Evictions++
		if ve.refs > 0 {
			ve.dead = true // deferred delete: a Get is still reading it
			continue
		}
		delete(s.entries, victim)
		os.Remove(s.path(victim))
	}
}

// decRefLocked releases one reader reference, completing a deferred
// eviction when the last reader of a dead blob finishes.
func (s *Store) decRefLocked(key string, e *entry) {
	e.refs--
	if e.refs == 0 && e.dead {
		s.unlinkLocked(key, e)
	}
}

// dropLocked removes a live entry whose file turned out to be
// unreadable (deleted or corrupted out of band).
func (s *Store) dropLocked(key string, e *entry) {
	if !e.dead && s.entries[key] == e {
		s.bytes -= e.size
	}
	s.unlinkLocked(key, e)
}

// unlinkLocked unindexes e and deletes key's file. A different entry
// indexed under key is a live replacement that a concurrent Put
// indexed after e died; the file is then the replacement's and stays.
func (s *Store) unlinkLocked(key string, e *entry) {
	if cur, ok := s.entries[key]; ok && cur != e {
		return
	}
	delete(s.entries, key)
	os.Remove(s.path(key))
}

// Delete removes a blob out of LRU order — the warm store's poisoning
// path: bytes whose restore failed must not satisfy any future Get. A
// blob still being read is marked dead and its file removed when the
// last reader is done, like an eviction.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.dead {
		return
	}
	s.bytes -= e.size
	if e.refs > 0 {
		e.dead = true
		return
	}
	delete(s.entries, key)
	os.Remove(s.path(key))
}

// Get returns the blob's bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok || e.dead {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	e.refs++
	s.clock++
	e.seq = s.clock
	s.mu.Unlock()

	data, err := os.ReadFile(s.path(key))

	s.mu.Lock()
	defer s.mu.Unlock()
	s.decRefLocked(key, e)
	if err != nil {
		s.stats.Misses++
		s.dropLocked(key, e)
		return nil, false
	}
	s.stats.Hits++
	return data, true
}

// Stats returns cumulative counters plus the live blob census.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Capacity = s.max
	st.Bytes = s.bytes
	for _, e := range s.entries {
		if !e.dead {
			st.Blobs++
		}
	}
	return st
}

// Close marks the store closed; blobs stay on disk for the next Open.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
