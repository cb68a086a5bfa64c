package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
	"repro/internal/workload"
)

// mechConfig is the mechanism configuration `loadex run` uses by
// default: threshold 5 work units, No_more_master on.
var mechConfig = core.Config{Threshold: core.Load{core.Workload: 5}, NoMoreMasterOpt: true}

// series collects one sample per operation for each metric.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// medians reports the median of every collected metric.
func (s series) medians(o *outcome) {
	for name, xs := range s {
		o.setMedian(name, xs)
	}
}

// solveCounts is what one simulated solve must reproduce exactly when
// the same input is solved again.
type solveCounts struct {
	events    uint64
	stateMsgs int64
	virtTime  float64
	decisions int
}

func countsOf(res *solver.Result) solveCounts {
	return solveCounts{events: res.Steps, stateMsgs: res.StateMsgs, virtTime: res.Time, decisions: res.Decisions}
}

// sameAs reports how c differs from an earlier solve of the same input.
func (c solveCounts) sameAs(ref solveCounts) error {
	if c != ref {
		return fmt.Errorf("simulated solve not reproducible: events %d/%d, state msgs %d/%d, virtual time %v/%v, decisions %d/%d",
			c.events, ref.events, c.stateMsgs, ref.stateMsgs, c.virtTime, ref.virtTime, c.decisions, ref.decisions)
	}
	return nil
}

// checkFlops verifies the solve executed exactly the tree's work.
func checkFlops(res *solver.Result, treeTotal float64) error {
	got := res.TotalExecutedFlops()
	if math.Abs(got-treeTotal) > 1e-9*math.Max(treeTotal, 1) {
		return fmt.Errorf("executed %.17g flops, tree total %.17g", got, treeTotal)
	}
	return nil
}

// solverResult extracts the solver's result from a scenario report.
func solverResult(rep *workload.Report) (*solver.Result, error) {
	res, ok := rep.AppResult.(*solver.Result)
	if !ok || res == nil {
		return nil, fmt.Errorf("report carries no solver result")
	}
	return res, nil
}

// addSolve records the mechanism, detector and solver layers of one
// solve: res is the solver's result, c the merged counters, detect the
// detector's latency.
func addSolve(s series, res *solver.Result, c core.Counters, detect float64) {
	s.add("core.decisions", float64(res.Decisions))
	s.add("core.state_msgs", float64(res.StateMsgs))
	s.add("core.state_bytes", res.StateBytes)
	if res.Decisions > 0 {
		s.add("core.state_msgs_per_decision", float64(res.StateMsgs)/float64(res.Decisions))
	}
	s.add("core.snapshot_rounds", float64(c.SnapshotRounds))
	s.add("core.snapshot_restarts", float64(res.SnapshotRestarts))
	s.add("core.acquire_s", c.DecisionLatency)
	s.add("core.busy_s", c.BusyTime)
	s.add("termdet.ctrl_msgs", float64(res.CtrlMsgs))
	s.add("termdet.detect_latency_s", detect)
	s.add("solver.max_peak_mem", res.MaxPeakMem)
	s.add("solver.data_msgs", float64(res.DataMsgs))
	s.add("solver.flops", res.TotalExecutedFlops())
}

// gridTreeTotal is the flop total of the split assembly tree solver-wl
// builds for an nx³ grid (solver.gridFor picks nx from the cluster
// size); the check against it is independent of the scenario's code.
func gridTreeTotal(nx int) (float64, error) {
	p, _ := sparse.Grid3D(nx, nx, nx, 1, sparse.Star, sparse.Sym)
	a, err := symbolic.Analyze(p, symbolic.DefaultOptions())
	if err != nil {
		return 0, err
	}
	return tree.Split(tree.Build(a), tree.DefaultSplit()).TotalCost, nil
}

// solverWL is the registered solver-wl application scenario.
func solverWL() (workload.AppScenario, error) {
	w, err := workload.Get("solver-wl")
	if err != nil {
		return nil, err
	}
	as, ok := w.(workload.AppScenario)
	if !ok {
		return nil, fmt.Errorf("solver-wl is not an application scenario")
	}
	return as, nil
}
