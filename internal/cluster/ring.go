// Package cluster federates a fleet of bumpd workers behind one
// coordinator: a health-checked worker registry, a consistent-hash ring
// that routes jobs by warm-affinity key (so sweep points sharing a
// warmup trajectory land on the worker already holding the checkpoint),
// submit/retry-with-failover execution, and progress relayed from each
// job's one worker stream to its watchers. A whole sweep is
// service.RunBatch over the coordinator, so its points are ordinary
// jobs. cmd/bumpctl serves it over the same /v1 wire protocol as a
// single worker, so existing clients work unchanged.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Ring is a consistent-hash ring mapping affinity keys to workers.
// Each worker owns `replicas` pseudo-random points on a uint64 circle;
// a key routes to the first point at or after its own hash. The map is
// deterministic (pure function of the member set), spreads keys evenly
// for modest replica counts, and moves only the departed worker's keys
// when membership changes — exactly the stability warm-checkpoint
// affinity needs.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string
}

type ringPoint struct {
	hash   uint64
	worker string
}

// DefaultReplicas is the virtual-node count per worker. 128 keeps the
// max/min load ratio under ~1.3 for small fleets.
const DefaultReplicas = 128

// NewRing builds a ring over the given worker IDs. replicas <= 0 picks
// DefaultReplicas.
func NewRing(workers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		points:  make([]ringPoint, 0, len(workers)*replicas),
		members: append([]string(nil), workers...),
	}
	for _, w := range workers {
		for i := 0; i < replicas; i++ {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(i))
			r.points = append(r.points, ringPoint{hash: ringHash(w, buf[:]), worker: w})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on worker ID so the ring is deterministic even under
		// (astronomically unlikely) 64-bit hash collisions.
		return r.points[i].worker < r.points[j].worker
	})
	return r
}

// ringHash hashes a worker/virtual-node or key to its ring position.
// SHA-256 (truncated) rather than a fast non-cryptographic hash: ring
// placement is computed once per worker and once per job, and uniform
// dispersion matters more than speed here.
func ringHash(s string, extra []byte) uint64 {
	h := sha256.New()
	h.Write([]byte(s))
	if extra != nil {
		h.Write([]byte{0})
		h.Write(extra)
	}
	var sum [sha256.Size]byte
	return binary.LittleEndian.Uint64(h.Sum(sum[:0]))
}

// Members returns the worker IDs the ring was built over.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner returns the worker a key routes to, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	seq := r.Sequence(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns every member in preference order for a key: the
// owner first, then each distinct worker encountered walking the ring
// clockwise. Failover tries workers in this order, so a key's backup
// assignment is as deterministic as its primary.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	kh := ringHash(key, nil)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	seq := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i := 0; i < len(r.points) && len(seq) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			seq = append(seq, p.worker)
		}
	}
	return seq
}
