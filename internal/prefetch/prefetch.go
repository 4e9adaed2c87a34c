// Package prefetch implements the comparison prefetchers of the paper's
// evaluation: the baseline stride prefetcher (Section V.A) and SMS —
// Spatial Memory Streaming (Somogyi et al. [44]) — relocated next to the
// LLC as the paper does.
package prefetch

import (
	"bump/internal/mem"
	"bump/internal/snapshot"
)

// Prefetcher consumes the LLC demand-access stream and emits block
// addresses to prefetch into the LLC.
type Prefetcher interface {
	// OnAccess observes a demand access (hit or miss) and returns blocks
	// to prefetch. core identifies the requesting core: per-core
	// mechanisms (stride) separate their training state by it, shared
	// mechanisms (SMS) may ignore it. miss reports whether the access
	// missed in the LLC.
	OnAccess(core int, pc mem.PC, b mem.BlockAddr, miss bool) []mem.BlockAddr
	// OnEvict observes an LLC eviction (SMS closes pattern generations
	// at eviction time).
	OnEvict(b mem.BlockAddr)
	// SnapshotTo writes the prefetcher's state to a checkpoint, and
	// RestoreFrom replaces it with a checkpoint's.
	SnapshotTo(w *snapshot.Writer)
	RestoreFrom(r *snapshot.Reader) error
}
