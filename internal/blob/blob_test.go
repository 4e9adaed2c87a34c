package blob

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// key returns a valid 64-hex digest deterministically derived from i.
func key(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func mustOpen(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := Open(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1<<20)
	data := []byte("checkpoint bytes")
	if err := s.Put(key(0), data); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(0), data); err != nil {
		t.Fatal(err) // idempotent re-put
	}
	got, ok := s.Get(key(0))
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("get: ok=%v %q", ok, got)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("missing key reported present")
	}
	if err := s.Put("../escape", data); err == nil {
		t.Fatal("path-metacharacter key accepted")
	}
	st := s.Stats()
	if st.Blobs != 1 || st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEvictionSparesInFlightRead: evicting a blob while a Get still
// holds its reference must not delete the file under the read — the
// blob goes logically dead at once (a miss for new readers, off the
// budget) and its file is deleted when that reference is released.
func TestEvictionSparesInFlightRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 100)
	if err := s.Put(key(0), bytes.Repeat([]byte{0xAA}, 80)); err != nil {
		t.Fatal(err)
	}
	// Take the reference Get holds across its file read.
	s.mu.Lock()
	e := s.entries[key(0)]
	e.refs++
	s.mu.Unlock()

	if err := s.Put(key(1), bytes.Repeat([]byte{0xBB}, 60)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("evicted blob still served to new readers")
	}
	if st := s.Stats(); st.Bytes > 100 || st.Evictions == 0 {
		t.Fatalf("budget not reclaimed under an in-flight read: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, key(0))); err != nil {
		t.Fatal("blob file deleted while a reader held it")
	}

	s.mu.Lock()
	s.decRefLocked(key(0), e)
	s.mu.Unlock()
	if _, err := os.Stat(filepath.Join(dir, key(0))); !os.IsNotExist(err) {
		t.Fatalf("deferred delete did not run when the read finished: %v", err)
	}
}

// TestDeferredDeleteSparesLiveReplacement: a Put that began before a
// key's entry existed re-indexes the key under a fresh entry once that
// entry is dead. When the dead entry's last reader then finishes, its
// deferred delete must leave the replacement's file in place.
func TestDeferredDeleteSparesLiveReplacement(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1<<20)
	data := []byte("checkpoint bytes")
	if err := s.Put(key(0), data); err != nil {
		t.Fatal(err)
	}
	// Take the reference Get holds across its file read.
	s.mu.Lock()
	e := s.entries[key(0)]
	e.refs++
	s.mu.Unlock()

	s.Delete(key(0)) // marks the read entry dead

	// Put's second half: its file is in place and the indexed entry is
	// dead, so it indexes a fresh one.
	s.mu.Lock()
	s.clock++
	s.entries[key(0)] = &entry{size: int64(len(data)), seq: s.clock}
	s.bytes += int64(len(data))
	s.decRefLocked(key(0), e) // the read finishes
	s.mu.Unlock()

	if got, ok := s.Get(key(0)); !ok || !bytes.Equal(got, data) {
		t.Fatalf("live replacement lost its file: ok=%v %q", ok, got)
	}
}

// TestReopenRebuildsIndex: a restart re-indexes the directory — every
// live blob is served again, torn temp files are swept, and the LRU
// budget still holds.
func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	blobs := map[string][]byte{}
	for i := 0; i < 5; i++ {
		blobs[key(i)] = bytes.Repeat([]byte{byte(i)}, 100+i)
		if err := s.Put(key(i), blobs[key(i)]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// A torn temp file and a stray non-digest file from a crash.
	os.WriteFile(filepath.Join(dir, "tmp-123456"), []byte("torn"), 0o644)
	os.WriteFile(filepath.Join(dir, "not-a-digest"), []byte("stray"), 0o644)

	s2 := mustOpen(t, dir, 1<<20)
	if n := s2.Stats().Blobs; n != 5 {
		t.Fatalf("reopened index has %d blobs, want 5", n)
	}
	for k, want := range blobs {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("blob %s after reopen: ok=%v", k, ok)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-123456")); !os.IsNotExist(err) {
		t.Fatal("torn temp file not swept on reopen")
	}

	// Reopen under a tighter budget: the index must evict down to fit.
	s2.Close()
	s3 := mustOpen(t, dir, 250)
	st := s3.Stats()
	if st.Bytes > 250 || st.Blobs >= 5 {
		t.Fatalf("reopen did not enforce the budget: %+v", st)
	}
	survivors := 0
	for k, want := range blobs {
		if got, ok := s3.Get(k); ok {
			if !bytes.Equal(got, want) {
				t.Fatalf("surviving blob %s corrupted after budget reopen", k)
			}
			survivors++
		}
	}
	if survivors != st.Blobs {
		t.Fatalf("%d blobs readable after budget reopen, index holds %d", survivors, st.Blobs)
	}
}

// TestLRUEvictionOrder: the coldest blob goes first; touching a blob
// with Get refreshes it.
func TestLRUEvictionOrder(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 250)
	for i := 0; i < 2; i++ {
		if err := s.Put(key(i), bytes.Repeat([]byte{1}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Get(key(0)) // key(0) is now warmer than key(1)
	if err := s.Put(key(2), bytes.Repeat([]byte{2}, 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("cold blob survived eviction")
	}
	for _, k := range []string{key(0), key(2)} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("warm blob %s evicted", k)
		}
	}
}

// TestConcurrentPutGetChurn hammers overlapping keys under the race
// detector; invariants (budget, no panics, served bytes intact) hold.
func TestConcurrentPutGetChurn(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 2_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(i % 10)
				want := strings.Repeat("x", 100+i%10)
				s.Put(k, []byte(want))
				if got, ok := s.Get(k); ok && len(got) != len(want) {
					t.Errorf("blob %s: %d bytes, want %d", k, len(got), len(want))
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Bytes > 2_000 {
		t.Fatalf("budget exceeded: %+v", st)
	}
}
