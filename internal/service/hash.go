package service

import (
	"encoding/hex"

	"bump/internal/sim"
	"bump/internal/snapshot"
)

// hashVersion is bumped whenever the canonical encoding (or the meaning
// of an encoded field) changes, so stale cached results can never be
// returned across incompatible versions.
// v2: sim.Config gained the Scenario field (walked canonically like the
// rest of the structure).
// v3: sim.Config gained ForkAt and ForkCycles (checkpoint-tree sweeps).
// v4: sim.Config gained Workers; it is zeroed before the walk (a
// resource knob must never split job identity — a Workers=8 submit
// coalesces with, and is served from the cache of, a sequential one).
// v5: sim.Config lost Workers (the sharded engine is gone), which drops
// its always-zero line from the encoding.
// v6: sim.Config gained Profile (the opt-in region-density profiler); a
// profiled result carries a Profile an unprofiled one leaves zero.
// v7: a MaxRowHitStreak with ForkAt 0 now takes effect at the warmup
// boundary (sim.Config.BindCycle), not at cycle 0, so such a config
// names a different result than under v6.
const hashVersion = "bump-config-v7"

// Hash returns the canonical content hash of a resolved configuration:
// two configs hash equal iff every identity-bearing field is equal. The
// encoding (snapshot.CanonicalDigestAt, paths rooted at "cfg") walks
// the config structure reflectively in declared field order, so adding
// a field to any config struct automatically changes the hash space (no
// silently-unhashed knobs).
func Hash(cfg sim.Config) (string, error) {
	sum, err := snapshot.CanonicalDigestAt(hashVersion, "cfg", cfg)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(sum[:]), nil
}

// HashSpec resolves and hashes a job spec in one step.
func HashSpec(spec JobSpec) (string, error) {
	cfg, err := spec.Config()
	if err != nil {
		return "", err
	}
	return Hash(cfg)
}
