package cache

import (
	"bytes"
	"strings"
	"testing"

	"bump/internal/mem"
	"bump/internal/snapshot"
)

// encodeLines hand-builds a cache section for a 2-set x 2-way cache
// whose lines hold the given blocks in set-major order (invalidTag for
// an empty way), each resident line clean with a distinct LRU stamp.
func encodeLines(t *testing.T, blocks [4]mem.BlockAddr) *snapshot.Reader {
	t.Helper()
	w := snapshot.NewWriter()
	w.Section("cache")
	w.U32(2) // sets
	w.U32(2) // ways
	w.U64(4) // LRU clock
	w.Any(Stats{})
	for i, b := range blocks {
		if b == invalidTag {
			w.U8(0)
			continue
		}
		w.U8(lineValid)
		w.U64(uint64(b))
		w.U64(uint64(i + 1))
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRestoreRejectsDuplicateTags: a checkpoint whose set holds one
// block in two ways must not restore. A lookup would see only the first
// copy while the second could still be evicted and written back.
func TestRestoreRejectsDuplicateTags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks [4]mem.BlockAddr
		want   string // error substring; "" restores
	}{
		{"distinct", [4]mem.BlockAddr{0, 2, 1, invalidTag}, ""},
		{"full sets", [4]mem.BlockAddr{4, 2, 3, 5}, ""},
		{"duplicate in set 0", [4]mem.BlockAddr{2, 2, 1, 3}, "holds block 0x2 in ways 0 and 1"},
		{"duplicate in set 1", [4]mem.BlockAddr{0, invalidTag, 7, 7}, "holds block 0x7 in ways 0 and 1"},
		{"block in the wrong set", [4]mem.BlockAddr{0, 3, 1, invalidTag}, "belonging to set 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(64*4, 2)
			err := c.RestoreFrom(encodeLines(t, tc.blocks))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid checkpoint rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
			if err != nil {
				return
			}
			for i, b := range tc.blocks {
				if b != invalidTag && c.Lookup(b, false) != Way(i) {
					t.Errorf("block %#x not restored into line %d", uint64(b), i)
				}
			}
		})
	}
}
