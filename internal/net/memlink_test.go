package net

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestMemLinkHalfClose pins the link semantics graceful Close relies
// on: after CloseWrite the peer reads everything written, then EOF,
// while the half-closed end still reads; after Close the peer's writes
// fail and so do local reads.
func TestMemLinkHalfClose(t *testing.T) {
	a, b := memLinkPair()
	if _, err := a.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := a.(*memConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("write after CloseWrite succeeded")
	}
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "hello" {
		t.Fatalf("peer read %q, %v; want hello, EOF", got, err)
	}
	if _, err := b.Write([]byte("back")); err != nil {
		t.Fatalf("reverse direction closed by a half-close: %v", err)
	}
	buf := make([]byte, 8)
	if n, err := a.Read(buf); err != nil || string(buf[:n]) != "back" {
		t.Fatalf("half-closed end read %q, %v", buf[:n], err)
	}
	a.Close()
	if _, err := b.Write([]byte("late")); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}
	if _, err := a.Read(buf); err == nil {
		t.Fatal("read on a closed end succeeded")
	}
}

// TestLiveClusterStopBeatsCloseGrace: an in-memory mesh tears down as
// soon as its writers flush, because Close half-closes every link that
// can be half-closed. Were half-close TCP-only again, every reader
// would wait out CloseGrace for an EOF that never comes.
func TestLiveClusterStopBeatsCloseGrace(t *testing.T) {
	const grace = 5 * time.Second
	cl, err := NewLiveCluster(4, core.MechIncrements, core.Config{}, Options{CloseGrace: grace})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Decide(0, 30, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cl.Stop()
	if took := time.Since(start); took > grace/10 {
		t.Fatalf("Stop took %s, want well under CloseGrace %s", took, grace)
	}
}

// obsRingApp is ringApp with every hosting node registered into reg at
// attach time, so an application run's series can be scraped.
type obsRingApp struct {
	ringApp
	reg *obs.Registry
}

func (a *obsRingApp) Attach(host workload.AppHost) error {
	for _, jp := range host.(*appBinding).ports {
		jp.nd.RegisterObs(a.reg)
	}
	return a.ringApp.Attach(host)
}

// TestLiveCatalogParity runs the live runtime with the obs registry and
// a trace recorder — a snapshot program cluster (decisions, busy time,
// executed items) and a detector-driven application run (control
// frames, idle spans) — and asserts every catalog metric and span kind
// that claims the live runtime shows up non-zero.
func TestLiveCatalogParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.jsonl")
	rec, err := chaos.OpenRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	progReg, appReg := obs.NewRegistry(), obs.NewRegistry()
	cl, err := NewLiveCluster(4, core.MechSnapshot, core.Config{}, Options{Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cl.N(); r++ {
		cl.Node(r).RegisterObs(progReg)
	}
	for m := 0; m < cl.N(); m++ {
		if err := cl.Decide(m, 60, 2, 100*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	app := &obsRingApp{ringApp: ringApp{laps: 2}, reg: appReg}
	if _, err := NewLiveAppRunner(Options{}).RunApp(4, app, workload.AppRunOptions{Term: "ds", Rec: rec}); err != nil {
		t.Fatal(err)
	}
	cl.Stop()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	totals := map[string]float64{}
	for _, s := range append(progReg.Gather(), appReg.Gather()...) {
		totals[s.Name] += s.Value
	}
	for _, m := range obs.Catalog() {
		if claimsLive(m.Runtimes) && totals[m.Name] <= 0 {
			t.Errorf("metric %s claims live but is %v", m.Name, totals[m.Name])
		}
	}

	events, err := chaos.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range events {
		switch e.Ev {
		case chaos.EvSpanBegin:
			seen[e.Span] = true
		case chaos.EvDone:
			seen["compute"] = true // the reporter synthesizes compute from start/done
		}
	}
	for _, s := range obs.SpanKinds() {
		if claimsLive(s.Runtimes) && !seen[s.Name] {
			t.Errorf("span %s claims live but was never recorded", s.Name)
		}
	}
}

func claimsLive(runtimes string) bool {
	for _, r := range strings.Split(runtimes, ",") {
		if r == "live" {
			return true
		}
	}
	return false
}
