package cache

import (
	"bytes"
	"strings"
	"testing"

	"bump/internal/mem"
	"bump/internal/snapshot"
)

// encodeLines hand-builds a cache section for a 2-set x 2-way cache
// whose sets have the given recency words and whose lines hold the given
// blocks in set-major order (invalidTag for an empty way), each
// resident line clean.
func encodeLines(t *testing.T, orders [2]uint64, blocks [4]mem.BlockAddr) *snapshot.Reader {
	t.Helper()
	w := snapshot.NewWriter()
	w.Section("cache")
	w.U32(2) // sets
	w.U32(2) // ways
	for _, o := range orders {
		w.U64(o)
	}
	w.Any(Stats{})
	for _, b := range blocks {
		if b == invalidTag {
			w.U8(0)
			continue
		}
		w.U8(lineValid)
		w.U64(uint64(b))
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
			err := c.RestoreFrom(encodeLines(t, [2]uint64{0x10, 0x01}, tc.blocks))
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

// TestRestoreRejectsBadOrder: a set's recency word must be an order of
// the set's ways, or its LRU victim could lie outside the set.
func TestRestoreRejectsBadOrder(t *testing.T) {
	full := [4]mem.BlockAddr{4, 2, 3, 5}
	for _, tc := range []struct {
		name   string
		orders [2]uint64
		want   string // error substring; "" restores
	}{
		{"both orders", [2]uint64{0x10, 0x01}, ""},
		{"way repeated", [2]uint64{0x10, 0x11}, "set 1: recency word 0x11 is not an order of 2 ways"},
		{"way outside the set", [2]uint64{0x20, 0x10}, "set 0: recency word 0x20 is not an order of 2 ways"},
		{"nibble above the ways", [2]uint64{0x10, 0x210}, "set 1: recency word 0x210 has nibbles above its 2 ways"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(64*4, 2)
			err := c.RestoreFrom(encodeLines(t, tc.orders, full))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid checkpoint rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
			if err != nil {
				return
			}
			// Each set's victim is the way its word ranks last.
			for s, o := range tc.orders {
				_, ev := c.Fill(mem.BlockAddr(8+s), false)
				if want := full[2*s+int(o>>4)]; !ev.Valid || ev.Line.Block != want {
					t.Errorf("set %d: fill evicted %+v, want block %#x", s, ev, uint64(want))
				}
			}
		})
	}
}
