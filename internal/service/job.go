package service

// Both job kinds are workload.Apps hosted by net.RunJob: one port per
// rank, each running the application's Algorithm 1 loop over job-tagged
// frames on the resident mesh, with one termdet.Protocol instance per
// (job, rank) deciding the job's own quiescence. A hosted application
// (the multifrontal solver) runs unchanged; the synthetic job is the
// paper's master/slave load program, re-expressed against the mesh's
// shared exchanger.

import (
	"fmt"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/workload"
)

// jobTimeout bounds one job's run to detector-announced quiescence.
const jobTimeout = 2 * time.Minute

// appBuf sizes an application job's port queues.
const appBuf = 256

// jobKindWork tags a synthetic job's work-share data message.
const jobKindWork = 1

// execute runs one admitted job to quiescence on the resident mesh and
// records its counters and executed work.
func (s *Server) execute(j *job) error {
	app, opts, buf, err := s.newApp(j)
	if err != nil {
		return err
	}
	if s.cfg.Term != "" {
		opts.Term = s.cfg.Term
	}
	hr, err := xnet.RunJob(s.nodes, j.id, buf, app, opts, jobTimeout)
	if err != nil {
		return err
	}
	out := app.Outcome(hr)
	if out.Err != nil {
		return out.Err
	}
	j.counters = workload.CountersFromApp(hr, out)
	for _, e := range out.Executed {
		j.executed += e
	}
	return nil
}

// newApp builds the job's application, its run options and the size of
// its port queues.
func (s *Server) newApp(j *job) (workload.App, workload.AppRunOptions, int, error) {
	n := s.cfg.Procs
	sp := j.spec
	if sp.Kind == "synthetic" {
		// Worst-case burst per rank: every decision's shares could
		// target the same rank, plus one ack per sent message and the
		// termination announcement.
		return newSynthetic(s, j), workload.AppRunOptions{}, sp.Decisions*sp.Slaves + n + 4, nil
	}
	w, err := workload.Get(sp.Scenario)
	if err != nil {
		return nil, workload.AppRunOptions{}, 0, err
	}
	as, ok := w.(workload.AppScenario)
	if !ok {
		return nil, workload.AppRunOptions{}, 0, fmt.Errorf("service: %q is not an application scenario", sp.Scenario)
	}
	p := workload.DefaultParams()
	p.Procs = n
	p.Normalize()
	app, opts, err := as.NewApp(s.cfg.Mech, s.cfg.Cfg, p)
	return app, opts, appBuf, err
}

// synthetic is a synthetic job as a workload.App. A rank's local task
// source is its quota of dynamic decisions, each taken against the
// mesh's shared view (so concurrent jobs contend for the same view —
// the measurement this service exists for) and shipped as work shares;
// a received share lands on the shared view for its spin, then leaves
// it. The job keeps no state of its own besides per-rank tallies, so
// quiescence is entirely the detector's.
type synthetic struct {
	s    *Server
	j    *job
	host workload.AppHost

	quota    []int   // decisions left per rank
	executed []int64 // shares completed per rank
	cnt      core.Counters
	err      error
}

func newSynthetic(s *Server, j *job) *synthetic {
	a := &synthetic{s: s, j: j, quota: make([]int, s.cfg.Procs), executed: make([]int64, s.cfg.Procs)}
	// Round-robin the decisions over the master ranks.
	for d := 0; d < j.spec.Decisions; d++ {
		a.quota[d%j.spec.Masters]++
	}
	return a
}

func (a *synthetic) Attach(host workload.AppHost) error {
	a.host = host
	return nil
}

// HandleState never runs: the job has no mechanism of its own.
func (a *synthetic) HandleState(rank, from, kind int, payload any) {}

// HandleData executes one received work share: the load lands on the
// shared view, the spin burns wall clock as the rank's compute, then
// the load is removed.
func (a *synthetic) HandleData(rank, _ int, m workload.DataMsg) {
	nd := a.s.nodes[rank]
	shift(nd, m.Work)
	a.host.Compute(rank, m.Size, func() {
		shift(nd, -m.Work)
		a.executed[rank]++
	})
}

// TryStart takes one of the rank's decisions. Cancellation stops new
// decisions; shares already sent still drain, so the shared view stays
// conserved.
func (a *synthetic) TryStart(rank int) bool {
	if a.quota[rank] == 0 {
		return false
	}
	select {
	case <-a.j.cancel:
		a.quota[rank] = 0
		return false
	default:
	}
	dec, latency, err := a.s.decide(a.j, rank)
	if err != nil {
		a.err, a.quota[rank] = err, 0
		return false
	}
	a.quota[rank]--
	a.cnt.AddDecision(latency)
	for _, as := range dec.Assignments {
		a.host.SendData(rank, int(as.Proc), workload.DataMsg{
			Kind: jobKindWork,
			Work: as.Delta[core.Workload],
			Size: a.j.spec.Spin,
		})
	}
	return true
}

func (a *synthetic) Blocked(int) bool { return false }

func (a *synthetic) Done() bool {
	for _, q := range a.quota {
		if q > 0 {
			return false
		}
	}
	return true
}

func (a *synthetic) Outcome(*workload.AppReport) workload.AppOutcome {
	return workload.AppOutcome{Executed: a.executed, Counters: a.cnt, Err: a.err}
}

// decide takes one dynamic decision for the job on rank's node: acquire
// a coherent view of the SHARED mesh exchanger, plan, commit. It
// returns the decision and its acquire latency, which the job charges
// to its own counters, not the mesh's (the mesh only sees the state
// traffic the acquisition cost). Decisions on one node must not overlap
// (a mechanism contract), so concurrent jobs with masters on the same
// rank serialize here — that queueing delay is part of the sharing cost
// the latency metric measures.
func (s *Server) decide(j *job, rank int) (core.Decision, float64, error) {
	s.decMu[rank].Lock()
	defer s.decMu[rank].Unlock()
	sp := j.spec
	var dec core.Decision
	var latency float64
	done := make(chan struct{})
	s.nodes[rank].Invoke(func(ctx core.Context, exch core.Exchanger) {
		acquireAt := time.Now()
		exch.Acquire(ctx, func() {
			latency = time.Since(acquireAt).Seconds()
			dec = core.PlanDecision(exch.View(), rank, sp.Slaves, sp.Work)
			exch.Commit(ctx, dec.Assignments)
			close(done)
		})
	})
	select {
	case <-done:
	case <-s.quit:
		return dec, 0, fmt.Errorf("service: mesh closed during job %d decision", j.id)
	}
	return dec, latency, nil
}

// shift moves work onto (or, negative, off) the node's entry of the
// shared view, as slave work.
func shift(nd *xnet.Node, work float64) {
	var delta core.Load
	delta[core.Workload] = work
	nd.Invoke(func(ctx core.Context, exch core.Exchanger) {
		exch.LocalChange(ctx, delta, true)
	})
}
