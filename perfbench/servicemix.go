package main

import (
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/service"
)

// The service-mix workload drives one resident 4-rank increments
// service with a closed loop of mixClients clients, each submitting its
// next job once its last one is done. Jobs come in a 3:1 mix of
// synthetic decision jobs and solver-wl app jobs, in an order drawn from
// the seed. It is the only workload through internal/service and the
// job mux, and it runs both job kinds.
const (
	mixProcs   = 4
	mixClients = 4
	mixSetups  = 25
	jobTimeout = 30 * time.Second
)

var (
	syntheticJob = service.JobSpec{Kind: "synthetic", Decisions: 3, Work: 90, Slaves: 2, Spin: 0.002}
	appJob       = service.JobSpec{Kind: "app", Scenario: "solver-wl"}
)

func serviceConfig() service.Config {
	return service.Config{
		Procs: mixProcs, Mech: core.MechIncrements, Cfg: mechConfig,
		Opts: xnet.Options{Codec: xnet.BinaryCodec{}}, MaxConcurrent: mixClients,
	}
}

// jobMix is the seed's job order: shuffled blocks of three synthetic
// jobs and one app job, so every prefix keeps close to the 3:1 mix.
type jobMix struct {
	mu   sync.Mutex
	rng  *rand.Rand
	next []service.JobSpec
}

func newJobMix(seed uint64) *jobMix {
	return &jobMix{rng: rand.New(rand.NewPCG(seed, 0x6a6f626d6978))}
}

func (m *jobMix) take() service.JobSpec {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.next) == 0 {
		m.next = []service.JobSpec{syntheticJob, syntheticJob, syntheticJob, appJob}
		m.rng.Shuffle(len(m.next), func(i, j int) { m.next[i], m.next[j] = m.next[j], m.next[i] })
	}
	sp := m.next[0]
	m.next = m.next[1:]
	return sp
}

// jobRun is one finished job as the generator saw it.
type jobRun struct {
	latency float64 // submit to done, timed by the client
	st      service.JobStatus
	err     error
}

func runServiceMix(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	s := series{}
	// Bring the service up mixSetups times; the last one serves.
	var setups []float64
	var srv *service.Server
	for i := 0; i < mixSetups; i++ {
		debug.FreeOSMemory() // as before each probe mesh, see meshProbe
		start := time.Now()
		sv, err := service.New(serviceConfig())
		if err != nil {
			return nil, fmt.Errorf("service.New: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < mixSetups-1 {
			if err := sv.Close(); err != nil {
				return nil, err
			}
			continue
		}
		srv = sv
	}
	defer srv.Close()
	if err := meshProbe(o, s, core.MechIncrements, cfg.traced); err != nil {
		return nil, err
	}

	mix := newJobMix(cfg.seed)
	seconds := cfg.seconds
	if cfg.traced {
		// Half the window untraced, for the layer metrics; half on a
		// service recording job spans, for the tracing overhead.
		seconds /= 2
	}
	meshBefore := srv.Metrics().Mesh
	win := closedLoop(srv, mix, seconds)
	mesh := srv.Metrics().Mesh
	if cfg.traced {
		if err := tracedMix(o, mix, seconds, win.runs); err != nil {
			return nil, err
		}
	}
	runs, elapsed := win.runs, win.elapsed
	var lat, queue, run, synth, app, decs, ctrl, acquire, busy []float64
	for _, r := range runs {
		o.attempted++
		if r.err != nil {
			o.fail(r.err)
			continue
		}
		lat = append(lat, r.latency)
		queue = append(queue, r.st.Started-r.st.Submitted)
		run = append(run, r.st.Makespan)
		if r.st.Kind == "app" {
			app = append(app, r.latency)
		} else {
			synth = append(synth, r.latency)
		}
		c := r.st.Counters
		decs = append(decs, float64(c.Decisions))
		ctrl = append(ctrl, float64(c.CtrlMsgs))
		acquire = append(acquire, c.DecisionLatency)
		busy = append(busy, c.BusyTime)
	}
	s.medians(o)
	done := float64(len(lat))
	frames, bytes := win.frames, win.bytes
	if done > 0 {
		o.vals["net.frames_in"] = frames / done
		o.vals["net.wire_bytes_in"] = bytes / done
		if frames > 0 {
			o.vals["net.bytes_per_frame"] = bytes / frames
			o.vals["net.alloc_bytes_per_frame"] = win.allocB / frames
		}
		o.vals["net.frames_per_sec"] = frames / elapsed
		o.vals["jobs_per_sec"] = done / elapsed
		// State traffic belongs to the mesh's shared mechanism, not to
		// any one job: per job is the window's total over its jobs.
		msgs := float64(mesh.StateMsgs - meshBefore.StateMsgs)
		o.vals["service.state_msgs_per_job"] = msgs / done
		o.vals["core.state_msgs"] = msgs / done
		o.vals["core.state_bytes"] = (mesh.StateBytes - meshBefore.StateBytes) / done
		if d := sum(decs); d > 0 {
			o.vals["core.state_msgs_per_decision"] = msgs / d
		}
	}
	o.setMedian("setup_s", setups)
	o.setMedian("solve_s", run)
	o.setMedian("job_p50_s", lat)
	o.setPercentile("service.job_p99_s", lat, 99)
	o.setMedian("service.queue_wait_p50_s", queue)
	o.setPercentile("service.queue_wait_p99_s", queue, 99)
	o.setMedian("service.run_p50_s", run)
	o.setPercentile("service.run_p99_s", run, 99)
	o.setMedian("service.synthetic_job_p50_s", synth)
	o.setMedian("service.app_job_p50_s", app)
	o.setMedian("service.decisions_per_job", decs)
	o.setMedian("core.decisions", decs)
	o.setMedian("termdet.ctrl_msgs", ctrl)
	o.setMedian("core.acquire_s", acquire)
	o.setMedian("core.busy_s", busy)
	return o, setRSS(o)
}

// mixWindow is one closed-loop measuring window.
type mixWindow struct {
	runs                           []jobRun
	elapsed, allocB, frames, bytes float64
}

// closedLoop keeps mixClients jobs outstanding on srv for seconds.
func closedLoop(srv *service.Server, mix *jobMix, seconds float64) mixWindow {
	before := wireTotals(srv)
	alloc := allocated()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var w mixWindow
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := runJob(srv, mix.take())
				mu.Lock()
				w.runs = append(w.runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start).Seconds()
	w.allocB = allocated() - alloc
	after := wireTotals(srv)
	w.frames, w.bytes = after[0]-before[0], after[1]-before[1]
	return w
}

// tracedMix runs a second window on a service that records job spans
// and reports obs.trace_overhead from the two windows' median latencies.
// A failed traced job counts as a failed operation.
func tracedMix(o *outcome, mix *jobMix, seconds float64, untraced []jobRun) error {
	tr, err := newTracer()
	if err != nil {
		return err
	}
	cfg := serviceConfig()
	cfg.Rec = tr.rec
	srv, err := service.New(cfg)
	if err != nil {
		tr.discard()
		return fmt.Errorf("service.New: %w", err)
	}
	win := closedLoop(srv, mix, seconds)
	cerr := srv.Close()
	if _, err := tr.collect(); err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	var traced, plain []float64
	for _, r := range win.runs {
		o.attempted++
		if r.err != nil {
			o.fail(r.err)
			continue
		}
		traced = append(traced, r.latency)
	}
	for _, r := range untraced {
		if r.err == nil {
			plain = append(plain, r.latency)
		}
	}
	overhead(o, traced, plain)
	return nil
}

// runJob submits one job, waits for it and checks it ended done with
// work executed.
func runJob(srv *service.Server, spec service.JobSpec) jobRun {
	start := time.Now()
	id, err := srv.Submit(spec)
	if err != nil {
		return jobRun{err: err}
	}
	st, err := srv.Result(id, jobTimeout)
	r := jobRun{latency: time.Since(start).Seconds(), st: st, err: err}
	if err == nil && (st.State != service.StateDone || st.Executed <= 0) {
		r.err = fmt.Errorf("job %d (%s) ended %s with %d executed: %s", id, st.Kind, st.State, st.Executed, st.Err)
	}
	return r
}

// wireTotals sums the mesh's inbound frames and bytes over all ranks.
func wireTotals(srv *service.Server) [2]float64 {
	var t [2]float64
	for _, tl := range srv.Top() {
		t[0] += float64(tl.MsgsIn)
		t[1] += float64(tl.BytesIn)
	}
	return t
}
