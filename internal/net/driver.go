package net

import (
	"repro/internal/core"
	"repro/internal/workload"
)

// Driver implements workload.Driver over an in-process cluster: the
// same codec and node loops a multi-process deployment uses, minus the
// fork. The zero value links the nodes over localhost TCP (runtime
// "net"); NewLiveDriver links them in memory (runtime "live").
// Multi-process deployments walk the same rank programs through `loadex
// node` (workload.RunRank over *Node).
type Driver struct {
	// Opts is the node option template; per-rank initial loads and
	// speed factors are filled in from the compiled programs.
	Opts Options
	// Drive tunes DriveCluster (Spin is always taken from the run's
	// Params; the rest applies as given).
	Drive workload.DriveOptions

	// mem links the nodes in memory instead of over TCP.
	mem bool
}

// NewDriver returns a TCP runtime driver using opts as the node option
// template.
func NewDriver(opts Options) Driver { return Driver{Opts: opts} }

// NewLiveDriver returns the live runtime driver: the nodes of each run
// linked over in-memory connection pairs, one per topology edge.
func NewLiveDriver(opts Options) Driver { return Driver{Opts: opts, mem: true} }

// Runtime implements workload.Driver.
func (d Driver) Runtime() string { return runtimeName(d.mem) }

// Run implements workload.Driver.
func (d Driver) Run(w workload.Workload, mech core.Mech, cfg core.Config, p workload.Params) (*workload.Report, error) {
	if as, ok := w.(workload.AppScenario); ok {
		// Application scenarios (the solver) are hosted through the
		// application port: the same mesh and codec, one node per rank,
		// in-process (see the execution model in workload/app.go).
		return workload.RunAppScenario(&AppRunner{Opts: d.Opts, mem: d.mem}, as, mech, cfg, p)
	}
	progs, err := w.Programs(p)
	if err != nil {
		return nil, err
	}
	cl, err := newCluster(len(progs), mech, cfg, ProgramOptions(d.Opts, progs), d.mem)
	if err != nil {
		return nil, err
	}
	defer cl.Stop()
	opts := d.Drive
	opts.Spin = p.Spin
	rep, err := workload.DriveCluster(cl, mech, progs, opts)
	if err != nil {
		return nil, err
	}
	rep.Scenario, rep.Runtime = w.Name(), d.Runtime()
	for r := 0; r < cl.N(); r++ {
		tr := cl.Transport(r)
		rep.WireMsgs += tr.MsgsIn
		rep.WireBytes += tr.BytesIn
	}
	return rep, nil
}

// ProgramOptions returns opts with the per-rank initial loads and speed
// factors of a compiled program set filled in. Both the in-process
// driver and the forked `loadex node` path use it, so the two
// deployments seed identical state.
func ProgramOptions(opts Options, progs []workload.Program) Options {
	opts.Initial, opts.Speed = workload.Setup(progs)
	return opts
}
