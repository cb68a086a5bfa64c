package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/ordering"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
	"repro/internal/workload"
)

// The paper-cell workload rebuilds the Table 5/6 cell AUDIKW_1 at 64
// processes at the experiments' scale for that size, from the seed, and
// solves it on the simulator under each of the paper's three
// mechanisms, three times. Set-up (generate, order, analyze, map) is most of a
// cell's time, so this is the workload that sees the sparse, ordering
// and symbolic layers.
const (
	paperMatrix = "AUDIKW_1"
	paperProcs  = 64
	paperScale  = 0.4 // experiments.DefaultConfig's scale at 64 processes
	paperRounds = 3
)

var paperMechs = []core.Mech{core.MechNaive, core.MechIncrements, core.MechSnapshot}

func runPaperCell(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	s := series{}
	var setups, rounds, cells, tracedRounds []float64
	ref := map[core.Mech]solveCounts{}
	w := newWindow(cfg.seconds, 2)
	for i := 0; w.more(); i++ {
		traced := cfg.traced && i%2 == 1
		o.attempted++
		start := time.Now()
		c, err := paperCellOnce(cfg.seed, traced, ref)
		w.done(time.Since(start))
		if err != nil {
			o.fail(err)
			continue
		}
		cells = append(cells, c.work)
		setups = append(setups, c.setup)
		if traced {
			tracedRounds = append(tracedRounds, c.rounds...)
			for name, xs := range c.spans {
				s[name] = append(s[name], xs...)
			}
			continue
		}
		rounds = append(rounds, c.rounds...)
		for name, xs := range c.layers {
			s[name] = append(s[name], xs...)
		}
	}
	s.medians(o)
	if cfg.traced {
		overhead(o, tracedRounds, rounds)
	}
	o.setMedian("setup_s", setups)
	o.setMedian("solve_s", rounds)
	o.setMedian("job_p50_s", cells)
	if len(cells) > 0 {
		o.vals["jobs_per_sec"] = float64(len(cells)) / sum(cells)
	}
	return o, setRSS(o)
}

// cellRun is one successful cell: the CPU time of its set-up, of each
// round of three solves and of all its timed work together, and its
// per-layer samples (from an untraced cell) or span samples (from a
// traced one).
type cellRun struct {
	setup, work float64
	rounds      []float64
	layers      series
	spans       series
}

func paperCellOnce(seed uint64, traced bool, ref map[core.Mech]solveCounts) (*cellRun, error) {
	c := &cellRun{layers: series{}, spans: series{}}
	pr, err := sparse.ByName(paperMatrix)
	if err != nil {
		return nil, err
	}
	// Each timed phase starts on a collected heap, so the garbage an
	// earlier phase left is not charged to the next one.
	runtime.GC()
	t0 := cpuSeconds()
	p, g := pr.Generate(paperScale, seed)
	t1 := cpuSeconds()
	perm, err := ordering.Order(g, ordering.MethodAuto)
	if err != nil {
		return nil, fmt.Errorf("order: %w", err)
	}
	t2 := cpuSeconds()
	a, err := symbolic.AnalyzeGraph(g, perm, p.Kind == sparse.Sym, symbolic.DefaultAmalg())
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	t3 := cpuSeconds()
	c.setup, c.work = t3-t0, t3-t0
	c.layers.add("sparse.generate_s", t1-t0)
	c.layers.add("ordering.order_s", t2-t1)
	c.layers.add("symbolic.analyze_s", t3-t2)
	c.layers.add("symbolic.factor_nnz", float64(a.FactorEntries))

	for r := 0; r < paperRounds; r++ {
		var round float64
		decisions := -1
		rs := series{} // this round's per-solve layer samples
		for _, mech := range paperMechs {
			// The mapping sets node types in place, so every solve
			// maps a fresh tree.
			tm := cpuSeconds()
			m, err := mapping.Map(tree.Split(tree.Build(a), tree.DefaultSplit()), mapping.DefaultConfig(paperProcs))
			if err != nil {
				return nil, fmt.Errorf("map: %w", err)
			}
			mapS := cpuSeconds() - tm
			if r == 0 {
				c.setup += mapS
			}
			c.work += mapS
			c.layers.add("mapping.map_s", mapS)
			res, dur, err := paperSolve(m, mech, traced, rs, c.spans)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mech, err)
			}
			round += dur
			c.work += dur
			if err := checkFlops(res, m.Tree.TotalCost); err != nil {
				return nil, fmt.Errorf("%s: %w", mech, err)
			}
			got := countsOf(res)
			if want, ok := ref[mech]; ok {
				if err := got.sameAs(want); err != nil {
					return nil, fmt.Errorf("%s: %w", mech, err)
				}
			} else {
				ref[mech] = got
			}
			if decisions >= 0 && res.Decisions != decisions {
				return nil, fmt.Errorf("%s took %d decisions, %s took %d", mech, res.Decisions, paperMechs[0], decisions)
			}
			decisions = res.Decisions
		}
		c.rounds = append(c.rounds, round)
		addRound(c.layers, rs)
	}
	return c, nil
}

// addRound records one round of the three mechanisms' solves as a cell
// reports it: counts and times summed over the mechanisms, peak memory
// as the largest, and the ratios recomputed from the sums.
func addRound(dst, rs series) {
	events := rs["sim.events"]
	for name, xs := range rs {
		switch name {
		case "solver.max_peak_mem":
			dst.add(name, sorted(xs)[len(xs)-1])
		case "sim.events_per_sec":
			dst.add(name, sum(events)/sum(rs["sim.run_s"]))
		case "sim.alloc_bytes_per_event":
			var b float64
			for i, x := range xs {
				b += x * events[i]
			}
			dst.add(name, b/sum(events))
		case "core.state_msgs_per_decision":
			dst.add(name, sum(rs["core.state_msgs"])/sum(rs["core.decisions"]))
		default:
			dst.add(name, sum(xs))
		}
	}
}

// paperSolve runs one mechanism's solve on the simulator: solver.NewApp
// and sim.AppRunner.RunApp, the two halves of solver.Run, so a traced
// solve can wrap the application with the program's recorder. It
// returns the result and the solve's CPU time.
func paperSolve(m *mapping.Mapping, mech core.Mech, traced bool, layers, spans series) (*solver.Result, float64, error) {
	app, opts, err := solver.NewApp(m, solver.DefaultParams(mech, sched.Workload()))
	if err != nil {
		return nil, 0, err
	}
	var tr *tracer
	if traced {
		if tr, err = newTracer(); err != nil {
			return nil, 0, err
		}
		app = workload.Recorded(app, tr.rec)
		opts.Rec = tr.rec
	}
	runtime.GC()
	alloc := allocated()
	start := cpuSeconds()
	hr, err := (&sim.AppRunner{}).RunApp(paperProcs, app, opts)
	if err != nil {
		if tr != nil {
			tr.discard()
		}
		return nil, 0, err
	}
	out := app.Outcome(hr)
	dur := cpuSeconds() - start
	allocB := allocated() - alloc
	if out.Err != nil {
		if tr != nil {
			tr.discard()
		}
		return nil, 0, out.Err
	}
	res := out.Result.(*solver.Result)
	if tr != nil {
		sp, err := tr.collect()
		if err != nil {
			return nil, 0, err
		}
		addSpans(spans, sp, paperProcs, res.Time)
		return res, dur, nil
	}
	addSolve(layers, res, workload.CountersFromApp(hr, out), hr.DetectLatency)
	addSim(layers, res, dur, allocB)
	return res, dur, nil
}

// addSim records the simulator layer of one solve.
func addSim(s series, res *solver.Result, runS, allocB float64) {
	s.add("sim.run_s", runS)
	s.add("sim.events", float64(res.Steps))
	s.add("solver.virt_time_s", res.Time)
	if res.Steps > 0 {
		s.add("sim.events_per_sec", float64(res.Steps)/runS)
		s.add("sim.alloc_bytes_per_event", allocB/float64(res.Steps))
	}
}

// addSpans records the span metrics a traced solve yields: snapshot
// rounds, detector idle time and compute, in application time.
func addSpans(s series, sp *spans, procs int, makespan float64) {
	s["core.snapshot_round_p50_s"] = append(s["core.snapshot_round_p50_s"], sp.durs["snapshot.round"]...)
	s.add("termdet.idle_share", sp.share("termdet.idle", procs, makespan))
	s.add("solver.compute_share", sp.share("compute", procs, makespan))
}
