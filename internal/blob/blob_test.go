package blob

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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

// TestConcurrentPutGetChurn hammers overlapping keys with Puts, Gets
// and Deletes under the race detector, once in a store roomy enough
// that nothing is evicted and once in one whose budget makes evictions
// race the reads. Every Get that hits returns the key's exact bytes,
// the budget holds, the directory holds exactly the indexed blobs, and
// in the roomy store a key put again after a Delete is served.
func TestConcurrentPutGetChurn(t *testing.T) {
	blobOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100+i) }
	const shared, goroutines = 10, 8
	for _, budget := range []int64{4_000, 500} {
		roomy := budget == 4_000
		dir := t.TempDir()
		s := mustOpen(t, dir, budget)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				own := shared + g // no other goroutine touches this key
				for i := 0; i < 50; i++ {
					k := i % shared
					if err := s.Put(key(k), blobOf(k)); err != nil {
						t.Error(err)
					}
					if got, ok := s.Get(key(k)); ok && !bytes.Equal(got, blobOf(k)) {
						t.Errorf("blob %d: served bytes differ from the put ones", k)
					}
					if i%goroutines == g {
						s.Delete(key(k))
					}

					s.Delete(key(own))
					if err := s.Put(key(own), blobOf(own)); err != nil {
						t.Error(err)
					}
					got, ok := s.Get(key(own))
					switch {
					case ok && !bytes.Equal(got, blobOf(own)):
						t.Errorf("blob %d: served bytes differ from the put ones", own)
					case !ok && roomy:
						t.Errorf("blob %d put again after a Delete is not served", own)
					}
				}
			}(g)
		}
		wg.Wait()

		st := s.Stats()
		if st.Bytes > budget {
			t.Fatalf("budget %d exceeded: %+v", budget, st)
		}
		if roomy != (st.Evictions == 0) {
			t.Fatalf("budget %d: %d evictions", budget, st.Evictions)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var held int64
		for _, f := range files {
			i, err := strconv.ParseInt(f.Name(), 16, 64)
			if err != nil {
				t.Fatalf("stray file %s", f.Name())
			}
			got, ok := s.Get(f.Name())
			if !ok || !bytes.Equal(got, blobOf(int(i)-1)) {
				t.Fatalf("file %s: indexed %v, bytes intact %v", f.Name(), ok, bytes.Equal(got, blobOf(int(i)-1)))
			}
			held += int64(len(got))
		}
		if st := s.Stats(); st.Blobs != len(files) || st.Bytes != held {
			t.Fatalf("index holds %d blobs of %d bytes, directory %d of %d", st.Blobs, st.Bytes, len(files), held)
		}
	}
}
