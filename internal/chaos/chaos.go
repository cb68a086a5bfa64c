// Package chaos is the fault-injection and run-validation subsystem.
//
// A Plan describes how a run's message delivery should degrade: extra
// per-message delay jitter, per-link reordering, probabilistic loss, a
// slow rank, a rank that crashes at a given time. The same Plan drives
// every runtime — the simulator applies it inside sim.Network.Send (in
// virtual time), and the live and TCP runtimes apply it through a fault
// writer wrapped around each peer link (in wall time). Plans are
// selected by name from a small registry (`loadex run/cluster/
// experiment -chaos <name>`).
//
// The other half of the package is the offline validator: runs record
// per-rank JSONL trace files (Recorder, one Event per application-level
// send/receive/compute/decision), and Validate checks cross-rank
// invariants after the fact — every message received exactly as sent
// (no loss, no duplication, nothing in flight when termination was
// declared), every started compute completed, and every recorded
// decision's slave selection coherent with the least-loaded policy over
// the view it was taken on. `loadex validate -dir <trace>` replays the
// checks from the files alone, so a chaos run is a checked experiment
// rather than a smoke test.
//
// The package depends only on the standard library; every runtime and
// the command layer import it, never the other way around.
package chaos

import (
	"fmt"
	"sort"
	"strings"
)

// Class partitions traffic for fault purposes the way the runtimes
// partition channels: mechanism state, application data, control
// frames, and everything else (handshakes, quiescence bookkeeping).
// Loss only ever applies to state and (optionally) data traffic —
// dropping control or handshake frames would fault the harness, not the
// algorithms under test.
type Class uint8

// Traffic classes.
const (
	ClassState Class = iota
	ClassData
	ClassCtrl
	ClassOther
)

func (c Class) String() string {
	switch c {
	case ClassState:
		return "state"
	case ClassData:
		return "data"
	case ClassCtrl:
		return "ctrl"
	}
	return "other"
}

// Plan is one named fault-injection specification, interpreted by every
// runtime. The zero value injects nothing. Times are seconds — virtual
// seconds on the simulator, wall-clock seconds elsewhere.
type Plan struct {
	// Name is the registry name, Description the one-line catalogue
	// entry.
	Name        string
	Description string
	// Seed roots the plan's deterministic random streams (see RNGFor).
	Seed uint64
	// Delay adds a uniform random extra delay in [0, Delay) seconds to
	// every message/frame.
	Delay float64
	// Reorder permits per-link reordering: the simulator lifts the FIFO
	// clamp on jittered deliveries, the TCP fault writer swaps adjacent
	// frames within a write batch. Without it, Delay preserves FIFO.
	Reorder bool
	// Loss is the drop probability for state-class messages; LossData
	// extends it to data-class messages. Control and handshake traffic
	// is never dropped.
	Loss     float64
	LossData bool
	// SlowRank (when ≥ 0) degrades every link touching that rank:
	// the simulator multiplies latency and transfer time by SlowFactor,
	// the real runtimes stall each frame an extra SlowDelay seconds.
	SlowRank   int
	SlowFactor float64
	SlowDelay  float64
	// CrashRank (when ≥ 0 with CrashAfter > 0) fails that rank
	// CrashAfter seconds into the run: the simulator drops all its
	// traffic from then on, a forked `loadex node` process exits, the
	// fault writer severs its links.
	CrashRank  int
	CrashAfter float64
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.Delay > 0 || p.Reorder || p.Loss > 0 || p.slows() || p.crashes()
}

func (p *Plan) slows() bool {
	return p != nil && p.SlowRank >= 0 && (p.SlowFactor > 1 || p.SlowDelay > 0)
}

func (p *Plan) crashes() bool {
	return p != nil && p.CrashRank >= 0 && p.CrashAfter > 0
}

// Crashes reports whether the plan crashes the given rank at all.
func (p *Plan) Crashes(rank int) bool {
	return p.crashes() && p.CrashRank == rank
}

// CrashedAt reports whether a link touching rank is dead at `elapsed`
// seconds into the run because one of its endpoints has crashed.
func (p *Plan) CrashedAt(elapsed float64, from, to int) bool {
	return p.crashes() && elapsed >= p.CrashAfter &&
		(from == p.CrashRank || to == p.CrashRank)
}

// SlowsLink reports whether a link touching rank SlowRank is degraded.
func (p *Plan) SlowsLink(from, to int) bool {
	return p.slows() && (from == p.SlowRank || to == p.SlowRank)
}

// Drops decides (by drawing from rng) whether one message of the given
// class is lost. Control and handshake traffic is exempt by
// construction.
func (p *Plan) Drops(c Class, rng *RNG) bool {
	if p == nil || p.Loss <= 0 {
		return false
	}
	if c != ClassState && !(c == ClassData && p.LossData) {
		return false
	}
	return rng.Float64() < p.Loss
}

// DelayFor draws one extra delivery delay in [0, Delay) seconds.
func (p *Plan) DelayFor(rng *RNG) float64 {
	if p == nil || p.Delay <= 0 {
		return 0
	}
	return rng.Float64() * p.Delay
}

// RNGFor derives the deterministic random stream for one fault site
// (e.g. one directed link) from the plan seed and the site coordinates.
// The same coordinates always yield the same stream, so simulator runs
// stay reproducible and forked processes need no shared state.
func (p *Plan) RNGFor(parts ...int) *RNG {
	seed := uint64(1)
	if p != nil {
		seed = p.Seed
	}
	r := NewRNG(seed)
	for _, part := range parts {
		r.state ^= uint64(int64(part)) * 0x9e3779b97f4a7c15
		r.Uint64()
	}
	return r
}

// noFaults returns a plan skeleton with the rank selectors disabled, so
// registry entries only name what they inject.
func noFaults(name, desc string) Plan {
	return Plan{Name: name, Description: desc, Seed: 1, SlowRank: -1, CrashRank: -1}
}

// plans builds the registry. Fresh copies per call: callers may adjust
// (e.g. re-seed) without aliasing.
func plans() []Plan {
	delay := noFaults("delay", "uniform 0–2 ms extra delivery delay on every message, FIFO preserved")
	delay.Delay = 0.002

	reorder := noFaults("reorder", "0–2 ms delay jitter with per-link reordering allowed (breaks the FIFO assumption)")
	reorder.Delay = 0.002
	reorder.Reorder = true

	loss := noFaults("loss", "drops 5% of state-channel messages (mechanism updates); data and control intact")
	loss.Loss = 0.05

	flaky := noFaults("flaky", "1 ms delay jitter plus 2% state-message loss — a congested, lossy network")
	flaky.Delay = 0.001
	flaky.Loss = 0.02

	slow := noFaults("slow", "rank 1 is slow: 8x link latency/transfer on sim, +1 ms per frame on real transports")
	slow.SlowRank = 1
	slow.SlowFactor = 8
	slow.SlowDelay = 0.001

	// 50 ms lands mid-run for the default workloads: long after the mesh
	// is up, well before quiescence. (A crash time past the run's end
	// simply never fires — the run quiesces first.)
	crash := noFaults("crash", "rank 1 crashes 50 ms into the run (process exit on forked runs, severed links otherwise)")
	crash.CrashRank = 1
	crash.CrashAfter = 0.05

	return []Plan{delay, reorder, loss, flaky, slow, crash}
}

// Names lists the registered plan names, registry order.
func Names() []string {
	var names []string
	for _, p := range plans() {
		names = append(names, p.Name)
	}
	return names
}

// Describe returns the one-line description of a registered plan, or ""
// for an unknown name.
func Describe(name string) string {
	for _, p := range plans() {
		if p.Name == name {
			return p.Description
		}
	}
	return ""
}

// Get resolves a plan name. "" and "none" resolve to nil (no faults);
// unknown names list the registry in the error.
func Get(name string) (*Plan, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	for _, p := range plans() {
		if p.Name == name {
			cp := p
			return &cp, nil
		}
	}
	return nil, fmt.Errorf("chaos: unknown plan %q (available: %s)",
		name, strings.Join(append([]string{"none"}, Names()...), ", "))
}

// LeastLoaded returns the k smallest-load ranks of view (excluding
// `exclude`), ties broken toward the lower rank — the selection policy
// core.PlanDecision applies (least-loaded by the workload metric). The
// validator recomputes selections with it from recorded views; a test
// cross-checks it against core.PlanDecision so the two cannot drift.
func LeastLoaded(view []float64, exclude, k int) []int {
	type cand struct {
		rank int
		load float64
	}
	var cands []cand
	for r, l := range view {
		if r != exclude {
			cands = append(cands, cand{r, l})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].rank < cands[j].rank
	})
	if k > len(cands) {
		k = len(cands)
	}
	if k < 0 {
		k = 0
	}
	sel := make([]int, 0, k)
	for _, c := range cands[:k] {
		sel = append(sel, c.rank)
	}
	sort.Ints(sel)
	return sel
}
