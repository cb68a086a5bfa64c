package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The sim-scale workload solves solver-wl on 2048 simulated ranks under
// increments, back to back. Set-up is under a millisecond of app build; the
// simulator's engine, the update broadcast and the termination detector
// do the rest, with no wire. The seed does not reach this input: the
// scenario's grid is fixed by the cluster size.
const (
	scaleProcs = 2048
	scaleGrid  = 12 // the grid solver-wl builds at 1024+ ranks
	// scaleBuilds is how many app builds set-up time is the median of:
	// one build is under a millisecond, too short to time alone.
	scaleBuilds = 25
)

func runSimScale(cfg runConfig) (*outcome, error) {
	as, err := solverWL()
	if err != nil {
		return nil, err
	}
	treeTotal, err := gridTreeTotal(scaleGrid)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < scaleBuilds; i++ {
		// Without a collection first, whether a build gets fresh pages
		// or reuses freed ones depends on where the GC cycle happens to
		// be, which splits build times into two modes.
		runtime.GC()
		start := cpuSeconds()
		if _, _, err := as.NewApp(core.MechIncrements, mechConfig, workload.Params{Procs: scaleProcs}); err != nil {
			return nil, fmt.Errorf("app build: %w", err)
		}
		setups = append(setups, cpuSeconds()-start)
	}
	o := newOutcome()
	s := series{}
	var solves, tracedSolves []float64
	var ref *solveCounts
	w := newWindow(cfg.seconds, 3)
	for i := 0; w.more(); i++ {
		traced := cfg.traced && i%2 == 1
		o.attempted++
		start := time.Now()
		one, err := simScaleOnce(as, treeTotal, traced)
		w.done(time.Since(start))
		if err == nil && ref != nil {
			err = one.counts.sameAs(*ref)
		}
		if err != nil {
			o.fail(err)
			continue
		}
		if ref == nil {
			ref = &one.counts
		}
		if traced {
			tracedSolves = append(tracedSolves, one.cpu)
		} else {
			solves = append(solves, one.cpu)
		}
		for name, xs := range one.samples {
			s[name] = append(s[name], xs...)
		}
	}
	s.medians(o)
	if cfg.traced {
		overhead(o, tracedSolves, solves)
	}
	o.setMedian("setup_s", setups)
	// A solve is the whole operation here: the app build inside the
	// call is under a millisecond of it.
	o.setMedian("solve_s", solves)
	o.setMedian("job_p50_s", solves)
	if len(solves) > 0 {
		o.vals["jobs_per_sec"] = float64(len(solves)) / sum(solves)
	}
	return o, setRSS(o)
}

// scaleRun is one successful sim-scale solve: the CPU time of its
// workload.RunAppScenario call, the counts a repeat must reproduce, and
// the solve's layer or span samples.
type scaleRun struct {
	cpu     float64
	counts  solveCounts
	samples series
}

func simScaleOnce(as workload.AppScenario, treeTotal float64, traced bool) (*scaleRun, error) {
	p := workload.Params{Procs: scaleProcs}
	var tr *tracer
	if traced {
		var err error
		if tr, err = newTracer(); err != nil {
			return nil, err
		}
		p.Record = tr.rec
	}
	runtime.GC() // start each solve on a collected heap, as paper-cell does
	alloc := allocated()
	start := cpuSeconds()
	rep, err := workload.RunAppScenario(&sim.AppRunner{}, as, core.MechIncrements, mechConfig, p)
	cpu := cpuSeconds() - start
	allocB := allocated() - alloc
	var sp *spans
	if tr != nil {
		var terr error
		if sp, terr = tr.collect(); err == nil {
			err = terr
		}
	}
	if err != nil {
		return nil, err
	}
	res, err := solverResult(rep)
	if err != nil {
		return nil, err
	}
	if err := checkFlops(res, treeTotal); err != nil {
		return nil, err
	}
	if rep.SimEvents != res.Steps {
		return nil, fmt.Errorf("report counts %d events, solver %d", rep.SimEvents, res.Steps)
	}
	one := &scaleRun{cpu: cpu, counts: countsOf(res), samples: series{}}
	if sp != nil {
		addSpans(one.samples, sp, scaleProcs, res.Time)
		return one, nil
	}
	addSolve(one.samples, res, rep.Counters, rep.DetectLatency)
	addSim(one.samples, res, cpu, allocB)
	return one, nil
}
