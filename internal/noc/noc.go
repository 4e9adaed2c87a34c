// Package noc models the on-chip interconnect between the cores' L1
// caches and the banked LLC: a 16x8 crossbar with a fixed 5-cycle
// traversal (Table II). The simulator is latency/traffic oriented — the
// crossbar never saturates for server workloads (Section V.F, "NOC
// bandwidth utilization is low") — so the model is a constant delay plus
// message accounting for the Fig. 12 overhead analysis.
package noc

// Kind classifies crossbar messages for traffic/energy accounting.
type Kind uint8

const (
	// Control is an address-sized message (request, writeback command).
	Control Kind = iota
	// Data is a cache-block-sized message (fill, writeback data).
	Data
)

// Stats holds message counts.
type Stats struct {
	ControlMsgs uint64
	DataMsgs    uint64
	// PCMsgs counts control messages that carried the triggering
	// instruction's PC (BuMP's requirement; half of BuMP's NOC energy
	// overhead per Section V.F).
	PCMsgs uint64
}

// Total returns all messages.
func (s Stats) Total() uint64 { return s.ControlMsgs + s.DataMsgs }

// Crossbar is the CMP interconnect.
type Crossbar struct {
	// Latency is the traversal time in CPU cycles.
	Latency uint64
	stats   Stats
}

// New returns a crossbar with the given traversal latency.
func New(latency uint64) *Crossbar { return &Crossbar{Latency: latency} }

// Send accounts one message and returns its delivery latency.
func (x *Crossbar) Send(kind Kind, withPC bool) uint64 {
	switch kind {
	case Control:
		x.stats.ControlMsgs++
	default:
		x.stats.DataMsgs++
	}
	if withPC {
		x.stats.PCMsgs++
	}
	return x.Latency
}

// Stats returns a copy of the counters.
func (x *Crossbar) Stats() Stats { return x.stats }
