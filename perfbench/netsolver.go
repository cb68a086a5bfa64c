package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/sim"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// The net-solver workload solves solver-wl on a 4-rank in-process TCP
// mesh (binary codec, snapshot, Dijkstra-Scholten detection) back to
// back, each solve on a fresh mesh. The simulated compute is a third of
// the makespan; the codec, the link loops, the node queues, snapshot
// acquisition and termination detection are the rest.
const (
	netProcs  = 4
	netGrid   = 8 // the grid solver-wl builds below 16 ranks
	netMech   = core.MechSnapshot
	netProbes = 15
	// probeDecisions is how many decisions the traced run times on the
	// probe mesh: enough for a p99 with ten samples beyond it.
	probeDecisions = 1200
)

func netOptions() xnet.Options { return xnet.Options{Codec: xnet.BinaryCodec{}} }

func runNetSolver(cfg runConfig) (*outcome, error) {
	as, err := solverWL()
	if err != nil {
		return nil, err
	}
	treeTotal, err := gridTreeTotal(netGrid)
	if err != nil {
		return nil, err
	}
	p := workload.Params{Procs: netProcs, Term: termdet.ProtocolDS}
	// The same app on the simulator: the single-threaded baseline of
	// net.overhead_x and the reference for the executed flops.
	simRep, err := workload.RunAppScenario(&sim.AppRunner{}, as, netMech, mechConfig, p)
	if err != nil {
		return nil, fmt.Errorf("simulated baseline: %w", err)
	}
	simRes, err := solverResult(simRep)
	if err != nil {
		return nil, err
	}
	if err := checkFlops(simRes, treeTotal); err != nil {
		return nil, fmt.Errorf("simulated baseline: %w", err)
	}

	o := newOutcome()
	s := series{}
	if err := meshProbe(o, s, netMech, cfg.traced); err != nil {
		return nil, err
	}
	var setups, spans, calls, tracedSpans []float64
	w := newWindow(cfg.seconds, 100)
	for i := 0; w.more(); i++ {
		traced := cfg.traced && i%2 == 1
		o.attempted++
		// Each solve starts on a collected heap: a mesh allocates tens
		// of MB of link queues, and the collection that garbage forces
		// would otherwise land on whichever solve comes next.
		runtime.GC()
		start := time.Now()
		one, err := netSolveOnce(as, p, treeTotal, traced)
		w.done(time.Since(start))
		if err != nil {
			o.fail(err)
			continue
		}
		calls = append(calls, one.call)
		setups = append(setups, one.call-one.makespan)
		if traced {
			tracedSpans = append(tracedSpans, one.makespan)
		} else {
			spans = append(spans, one.makespan)
		}
		for name, xs := range one.samples {
			s[name] = append(s[name], xs...)
		}
	}
	s.medians(o)
	o.vals["solver.virt_time_s"] = simRes.Time
	if cfg.traced {
		overhead(o, tracedSpans, spans)
	}
	o.setMedian("setup_s", setups)
	o.setMedian("solve_s", spans)
	o.setMedian("job_p50_s", calls)
	o.setPercentile("net.solve_p90_s", spans, 90)
	if len(calls) > 0 {
		o.vals["jobs_per_sec"] = float64(len(calls)) / sum(calls)
	}
	if v, ok := o.vals["solve_s"]; ok && simRes.Time > 0 {
		o.vals["net.overhead_x"] = v / simRes.Time
	}
	return o, setRSS(o)
}

// netRun is one successful net solve: the wall time of the whole
// workload.RunAppScenario call, the makespan from host start to detected
// termination, and the solve's layer or span samples.
type netRun struct {
	call, makespan float64
	samples        series
}

func netSolveOnce(as workload.AppScenario, p workload.Params, treeTotal float64, traced bool) (*netRun, error) {
	var tr *tracer
	if traced {
		var err error
		if tr, err = newTracer(); err != nil {
			return nil, err
		}
		p.Record = tr.rec
	}
	alloc := allocated()
	start := time.Now()
	rep, err := workload.RunAppScenario(&xnet.AppRunner{Opts: netOptions()}, as, netMech, mechConfig, p)
	call := time.Since(start).Seconds()
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
	one := &netRun{call: call, makespan: res.Time, samples: series{}}
	if sp != nil {
		addSpans(one.samples, sp, p.Procs, res.Time)
		return one, nil
	}
	addSolve(one.samples, res, rep.Counters, rep.DetectLatency)
	addWire(one.samples, float64(rep.WireMsgs), float64(rep.WireBytes), res.Time, allocB)
	return one, nil
}

// addWire records the transport layer of one solve.
func addWire(s series, frames, bytes, seconds, allocB float64) {
	s.add("net.frames_in", frames)
	s.add("net.wire_bytes_in", bytes)
	if frames > 0 {
		s.add("net.bytes_per_frame", bytes/frames)
		s.add("net.alloc_bytes_per_frame", allocB/frames)
	}
	if seconds > 0 {
		s.add("net.frames_per_sec", frames/seconds)
	}
}

// meshProbe brings a same-size mesh up and down netProbes times, timing
// net.NewCluster and Cluster.Stop. In a traced run the last probe mesh
// also takes probeDecisions decisions with the program's recorder on:
// the net node's Decide is where the decision.acquire, decision.plan and
// decision.transfer spans are emitted.
func meshProbe(o *outcome, s series, mech core.Mech, traced bool) error {
	var ups, downs []float64
	for i := 0; i < netProbes; i++ {
		opts := netOptions()
		var tr *tracer
		if traced && i == netProbes-1 {
			var err error
			if tr, err = newTracer(); err != nil {
				return err
			}
			opts.Rec = tr.rec
		}
		// Return freed memory to the OS first, so each mesh faults its
		// pages in as a fresh process's would. Left to the background
		// scavenger, whether a mesh reuses the pages of the one before
		// it varies from run to run, and with it the set-up time.
		debug.FreeOSMemory()
		start := time.Now()
		cl, err := xnet.NewCluster(netProcs, mech, mechConfig, opts)
		if err != nil {
			if tr != nil {
				tr.discard()
			}
			return fmt.Errorf("mesh probe: %w", err)
		}
		ups = append(ups, time.Since(start).Seconds())
		var derr error
		if tr != nil {
			derr = probeDecide(cl)
		}
		start = time.Now()
		cl.Stop()
		downs = append(downs, time.Since(start).Seconds())
		if tr != nil {
			sp, err := tr.collect()
			if derr == nil {
				derr = err
			}
			if derr != nil {
				return fmt.Errorf("decision probe: %w", derr)
			}
			setSpanTails(o, sp)
		}
	}
	s["net.mesh_up_s"] = ups
	s["net.teardown_s"] = downs
	return nil
}

// probeDecide takes probeDecisions decisions round-robin over the ranks
// and waits for the assigned work to drain.
func probeDecide(cl *xnet.Cluster) error {
	for i := 0; i < probeDecisions; i++ {
		if err := cl.Decide(i%netProcs, 12, 2, 0); err != nil {
			return err
		}
	}
	return cl.Drain(30 * time.Second)
}

// setSpanTails reports the decision span metrics of a probe trace.
func setSpanTails(o *outcome, sp *spans) {
	acq := sp.durs["decision.acquire"]
	o.setMedian("core.acquire_p50_s", acq)
	if v, err := percentile(acq, 99); err == nil {
		o.vals["core.acquire_p99_s"] = v
	}
	o.setMedian("core.plan_s", sp.durs["decision.plan"])
	o.setMedian("net.transfer_s", sp.durs["decision.transfer"])
}
