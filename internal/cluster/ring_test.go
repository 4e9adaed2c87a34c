package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("key-%d", i)
	}
	return ks
}

func TestRingDeterministicAndComplete(t *testing.T) {
	members := []string{"w0", "w1", "w2"}
	a := NewRing(members, 0)
	b := NewRing(members, 0)
	for _, k := range keys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q differs across identically-built rings", k)
		}
		seq := a.Sequence(k)
		if len(seq) != len(members) {
			t.Fatalf("sequence for %q has %d workers, want %d", k, len(seq), len(members))
		}
		if seq[0] != a.Owner(k) {
			t.Fatalf("sequence head %q != owner %q", seq[0], a.Owner(k))
		}
		seen := map[string]bool{}
		for _, w := range seq {
			if seen[w] {
				t.Fatalf("sequence for %q repeats worker %q", k, w)
			}
			seen[w] = true
		}
	}
}

// TestRingMinimalReshuffle: adding a worker moves only the keys the new
// worker takes over; every other key keeps its owner. This is the
// property that keeps warm checkpoints where they are when the fleet
// changes.
func TestRingMinimalReshuffle(t *testing.T) {
	small := NewRing([]string{"w0", "w1", "w2"}, 0)
	big := NewRing([]string{"w0", "w1", "w2", "w3"}, 0)
	moved := 0
	for _, k := range keys(2000) {
		ownerBig := big.Owner(k)
		if ownerBig == "w3" {
			moved++
			continue
		}
		if got := small.Owner(k); got != ownerBig {
			t.Fatalf("key %q owned by %q in 3-ring but %q in 4-ring (non-w3 keys must not move)", k, got, ownerBig)
		}
	}
	if moved == 0 {
		t.Fatal("new worker took no keys")
	}
}

func TestRingBalance(t *testing.T) {
	members := []string{"w0", "w1", "w2"}
	r := NewRing(members, 0)
	counts := map[string]int{}
	const n = 9000
	for _, k := range keys(n) {
		counts[r.Owner(k)]++
	}
	for _, w := range members {
		// Perfect balance is n/3; require every worker within ~2x of it
		// in both directions (consistent hashing with 128 replicas is
		// comfortably tighter than this).
		if counts[w] < n/6 || counts[w] > n/2 {
			t.Errorf("worker %s owns %d of %d keys — badly unbalanced (%v)", w, counts[w], n, counts)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Owner("k"); got != "" {
		t.Fatalf("empty ring owner %q", got)
	}
	one := NewRing([]string{"solo"}, 0)
	for _, k := range keys(10) {
		if one.Owner(k) != "solo" {
			t.Fatal("single-member ring must own every key")
		}
	}
}
