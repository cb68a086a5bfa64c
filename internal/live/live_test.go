// Package live holds the acceptance tests of the live runtime: the
// internal/net nodes — codec, link loops, node loops, fault writer —
// linked over in-memory connection pairs instead of TCP sockets
// (net.NewLiveCluster, net.NewLiveDriver). The tests run under the
// race detector in CI's short lane.
package live

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	xnet "repro/internal/net"
	_ "repro/internal/solver" // registers the solver-wl scenario
	"repro/internal/workload"
)

func newCluster(t *testing.T, n int, mech core.Mech, cfg core.Config) *xnet.Cluster {
	t.Helper()
	cl, err := xnet.NewLiveCluster(n, mech, cfg, xnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

func TestLiveClusterBasicWorkflow(t *testing.T) {
	for _, mech := range core.Mechanisms() {
		t.Run(string(mech), func(t *testing.T) {
			cl := newCluster(t, 4, mech, core.Config{Threshold: core.Load{core.Workload: 1}})
			if err := cl.Decide(0, 300, 3, 0); err != nil {
				t.Fatal(err)
			}
			if err := cl.Drain(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if executed := cl.ExecutedItems(); executed != 3 {
				t.Fatalf("executed %d work items, want 3", executed)
			}
		})
	}
}

func TestLiveConcurrentDecisions(t *testing.T) {
	// Multiple masters decide simultaneously under every mechanism; with
	// the race detector this validates the mechanisms' single-goroutine
	// discipline and the snapshot sequentialization over real links.
	for _, mech := range core.Mechanisms() {
		t.Run(string(mech), func(t *testing.T) {
			const n = 6
			cl := newCluster(t, n, mech, core.Config{Threshold: core.Load{core.Workload: 10}})
			var wg sync.WaitGroup
			for master := 0; master < 3; master++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						if err := cl.Decide(m, 100, 2, time.Millisecond); err != nil {
							t.Error(err)
							return
						}
					}
				}(master)
			}
			wg.Wait()
			if err := cl.Drain(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if executed := cl.ExecutedItems(); executed != 30 {
				t.Fatalf("executed %d work items, want 30", executed)
			}
		})
	}
}

func TestLiveViewsConvergeAfterQuiescence(t *testing.T) {
	cl := newCluster(t, 4, core.MechIncrements, core.Config{}) // zero threshold: every change broadcast
	for i := 0; i < 4; i++ {
		if err := cl.Decide(i, 40, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Give the trailing Update broadcasts a moment, then all views must
	// agree that all work is done (loads back to 0).
	time.Sleep(50 * time.Millisecond)
	for r := 0; r < 4; r++ {
		for p, l := range cl.View(r) {
			if l[core.Workload] != 0 {
				t.Fatalf("node %d sees residual load %v on %d", r, l[core.Workload], p)
			}
		}
	}
}

func TestLiveSnapshotStats(t *testing.T) {
	cl := newCluster(t, 4, core.MechSnapshot, core.Config{})
	if err := cl.Decide(2, 90, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(2); st.SnapshotsInitiated != 1 {
		t.Fatalf("snapshots initiated = %d, want 1", st.SnapshotsInitiated)
	}
}

func TestLiveDecideRejectsBadMaster(t *testing.T) {
	cl := newCluster(t, 2, core.MechNaive, core.Config{})
	if err := cl.Decide(9, 10, 1, 0); err == nil {
		t.Fatal("bad master accepted")
	}
}

// TestLiveDriverCounters checks the live runtime fills the uniform
// counters coherently under real concurrency: totals equal the per-kind
// sum, the mechanism stats and the wire tallies agree on the quantities
// they both see, and every decision is accounted.
func TestLiveDriverCounters(t *testing.T) {
	p := workload.Params{Procs: 5, Masters: 2, Decisions: 3, Work: 60, Slaves: 2, Spin: 200 * time.Microsecond}
	cfg := core.Config{Threshold: core.Load{core.Workload: 5}, NoMoreMasterOpt: true}
	w, err := workload.Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range core.Mechanisms() {
		t.Run(string(mech), func(t *testing.T) {
			rep, err := xnet.NewLiveDriver(xnet.Options{}).Run(w, mech, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Runtime != "live" {
				t.Fatalf("report names runtime %q, want live", rep.Runtime)
			}
			c := rep.Counters
			var msgs int64
			var bytes float64
			for _, tally := range c.PerKind {
				msgs += tally.Msgs
				bytes += tally.Bytes
			}
			if c.StateMsgs != msgs || c.StateBytes != bytes {
				t.Fatalf("totals (%d, %g) != per-kind sum (%d, %g)", c.StateMsgs, c.StateBytes, msgs, bytes)
			}
			if c.Decisions != int64(rep.DecisionsTaken) {
				t.Fatalf("counters saw %d decisions, report %d", c.Decisions, rep.DecisionsTaken)
			}
			if c.DataMsgs != rep.TotalExecuted() {
				t.Fatalf("data items %d != executed %d", c.DataMsgs, rep.TotalExecuted())
			}
			// The binary codec's work frame is exactly the modeled size.
			if c.DataBytes != float64(c.DataMsgs)*core.BytesWorkItem {
				t.Fatalf("data bytes %g != items × BytesWorkItem", c.DataBytes)
			}
			st := rep.TotalStats()
			if got := c.Kind(core.KindUpdate).Msgs; got != st.UpdatesSent {
				t.Fatalf("update tally %d != mechanism UpdatesSent %d", got, st.UpdatesSent)
			}
			if c.SnapshotRounds != core.SnapshotRoundsOf(st) {
				t.Fatalf("snapshot rounds %d != initiated+restarts %d", c.SnapshotRounds, core.SnapshotRoundsOf(st))
			}
			if mech == core.MechSnapshot {
				if c.DecisionLatency <= 0 || c.BusyTime <= 0 {
					t.Fatalf("snapshot runtime costs missing: latency=%g busy=%g", c.DecisionLatency, c.BusyTime)
				}
				if got, want := c.Kind(core.KindMasterToSlave).Msgs, int64(rep.DecisionsTaken*p.Slaves); got != want {
					t.Fatalf("master_to_slave %d, want decisions×slaves = %d", got, want)
				}
			} else if c.SnapshotRounds != 0 {
				t.Fatalf("maintained mechanism ran %d snapshot rounds", c.SnapshotRounds)
			}
		})
	}
}

// TestChaosDelayFIFORegression pins the fix for a real hang: a live
// host once delivered delayed messages through independent timers,
// which let jittered deliveries overtake each other on a link. The
// snapshot mechanism's rounds assume FIFO channels, so roughly one run
// in three wedged until the two-minute timeout. Delay now stalls each
// link's writer in order (the fault writer); this test replays the
// failing configuration (solver-wl × snapshot × live × delay) a few
// times with a short timeout — a reintroduced reorder shows up as a
// timeout error here, not as a flaky two-minute CI stall.
func TestChaosDelayFIFORegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run live solver cell")
	}
	plan, err := chaos.Get("delay")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Get("solver-wl")
	if err != nil {
		t.Fatal(err)
	}
	as := w.(workload.AppScenario)
	for i := 0; i < 3; i++ {
		r := xnet.NewLiveAppRunner(xnet.Options{Chaos: plan})
		r.Timeout = 30 * time.Second
		rep, err := workload.RunAppScenario(r, as, core.MechSnapshot, core.Config{}, workload.Params{Procs: 8})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if rep.TotalExecuted() == 0 {
			t.Fatalf("run %d executed nothing", i)
		}
	}
}
