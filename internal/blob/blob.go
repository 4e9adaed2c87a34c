// Package blob is a content-addressed, size-bounded checkpoint store:
// immutable blobs named by their digest (warm keys are hex
// snapshot-derived structural digests), written atomically
// (temp-file + rename), evicted LRU under a byte budget, and rebuilt
// from the directory on restart.
//
// A read holds its file open: Get opens the blob under the store lock
// and reads it outside, so an eviction or Delete that races the read
// only unlinks the name. On Unix a file opened before its name is
// unlinked or renamed over stays readable to the end, so the read still
// returns the blob's bytes, and the next Get misses.
//
// The store backs sim.WarmStore (it satisfies sim.WarmBackend), giving
// warm checkpoints a life beyond one process: a worker restarted on
// the same directory (bumpd -warm-dir) restores its warmups from here
// instead of re-simulating them.
package blob

import (
	"fmt"
	"io"
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

// entry tracks one indexed blob; seq is its LRU stamp.
type entry struct {
	size int64
	seq  uint64
}

// Store is the content-addressed blob directory.
type Store struct {
	dir string
	max int64

	mu      sync.Mutex
	entries map[string]*entry
	clock   uint64
	stats   Stats // Bytes is the live total; Blobs and Capacity are filled by Stats
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
		s.stats.Bytes += f.size
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
	if _, ok := s.entries[key]; ok {
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
	if _, ok := s.entries[key]; ok {
		os.Remove(tmp.Name())
		return nil // concurrent identical put won the race
	}
	// Rename under the lock: every unlink also runs under it, so the
	// file at a key's path is always the indexed entry's.
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: %w", err)
	}
	s.clock++
	s.entries[key] = &entry{size: int64(len(data)), seq: s.clock}
	s.stats.Bytes += int64(len(data))
	s.stats.Puts++
	s.evictLocked(key)
	return nil
}

// evictLocked enforces the byte budget, LRU first. keep is never
// evicted (the blob just inserted).
func (s *Store) evictLocked(keep string) {
	for s.stats.Bytes > s.max {
		victim := ""
		var ve *entry
		for k, e := range s.entries {
			if k != keep && (ve == nil || e.seq < ve.seq) {
				victim, ve = k, e
			}
		}
		if ve == nil {
			return
		}
		s.stats.Evictions++
		s.removeLocked(victim, ve)
	}
}

// removeLocked unindexes e and unlinks key's file, unless the index no
// longer holds e under key: then the key was removed and put again
// meanwhile, and the file is the live replacement's.
func (s *Store) removeLocked(key string, e *entry) {
	if s.entries[key] != e {
		return
	}
	delete(s.entries, key)
	s.stats.Bytes -= e.size
	os.Remove(s.path(key))
}

// Delete removes a blob out of LRU order — the warm store's poisoning
// path: bytes whose restore failed must not satisfy any future Get. A
// Get already reading the blob finishes on its open file.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.removeLocked(key, e)
	}
}

// Get returns the blob's bytes. It opens the file under the lock, so
// the file is the indexed entry's, and reads it outside.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	f, err := os.Open(s.path(key))
	s.clock++
	e.seq = s.clock
	s.mu.Unlock()

	var data []byte
	if err == nil {
		data, err = io.ReadAll(f)
		f.Close()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// The file was deleted or became unreadable out of band.
		s.stats.Misses++
		s.removeLocked(key, e)
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
	st.Blobs = len(s.entries)
	return st
}

// Close marks the store closed; blobs stay on disk for the next Open.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
