package net

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// TestJobFrameRoundTrip pushes job-tagged frames through the codec:
// the job id and the base-type payload must survive unchanged.
func TestJobFrameRoundTrip(t *testing.T) {
	stateMsg, err := JobStateMessage(7, 2, core.KindUpdate, core.UpdatePayload{Load: core.Load{42, -1}})
	if err != nil {
		t.Fatalf("JobStateMessage: %v", err)
	}
	msgs := []Message{
		JobDataMessage(1, 3, workload.DataMsg{Kind: 2, Node: 9, Peer: 1, Count: 4, Work: 12.5, Size: 80, Bytes: 640}),
		JobCtrlMessage(300, 0, termdet.Ctrl{Kind: termdet.CtrlToken, Count: -3, Black: true}),
		stateMsg,
	}
	codec := BinaryCodec{}
	for _, m := range msgs {
		body, err := codec.Encode(nil, m)
		if err != nil {
			t.Fatalf("%T encode %s: %v", codec, m.Type, err)
		}
		got, err := codec.Decode(body)
		if err != nil {
			t.Fatalf("%T decode %s: %v", codec, m.Type, err)
		}
		if got.Job != m.Job {
			t.Errorf("%T %s: job id %d, want %d", codec, m.Type, got.Job, m.Job)
		}
		// Compare the fields the base type carries.
		if got.Type != m.Type || got.From != m.From ||
			!reflect.DeepEqual(got.Data, m.Data) || got.Ctrl != m.Ctrl ||
			got.Kind != m.Kind {
			t.Errorf("%T %s roundtrip drift:\n got %+v\nwant %+v", codec, m.Type, got, m)
		}
	}
}

// TestJobFrameClass asserts the chaos fault injector buckets job-tagged
// frames like their base types.
func TestJobFrameClass(t *testing.T) {
	cases := []struct {
		m    Message
		want chaos.Class
	}{
		{JobDataMessage(1, 0, workload.DataMsg{Kind: 1}), chaos.ClassData},
		{JobCtrlMessage(2, 0, termdet.Ctrl{Kind: termdet.CtrlAck}), chaos.ClassCtrl},
	}
	st, err := JobStateMessage(3, 0, core.KindUpdate, core.UpdatePayload{})
	if err != nil {
		t.Fatalf("JobStateMessage: %v", err)
	}
	cases = append(cases, struct {
		m    Message
		want chaos.Class
	}{st, chaos.ClassState})
	codec := BinaryCodec{}
	for _, c := range cases {
		body, err := codec.Encode(nil, c.m)
		if err != nil {
			t.Fatalf("%T encode: %v", codec, err)
		}
		if got := frameClass(body); got != c.want {
			t.Errorf("%T frameClass(%s) = %v, want %v", codec, c.m.Type, got, c.want)
		}
	}
}

// TestJobMuxRouting wires a 2-rank mesh and checks that frames of two
// concurrent jobs land on their own ports only, and that frames for an
// unregistered job id are dropped without disturbing the mesh.
func TestJobMuxRouting(t *testing.T) {
	nodes, addrs := make([]*Node, 2), make([]string, 2)
	for r := 0; r < 2; r++ {
		nd, err := NewNode(r, 2, core.MechNaive, core.Config{}, Options{})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", r, err)
		}
		nodes[r] = nd
		if addrs[r], err = nd.Listen("127.0.0.1:0"); err != nil {
			t.Fatalf("Listen(%d): %v", r, err)
		}
	}
	defer func() {
		var wg sync.WaitGroup
		for _, nd := range nodes {
			wg.Add(1)
			go func(nd *Node) {
				defer wg.Done()
				nd.Close()
			}(nd)
		}
		wg.Wait()
	}()
	errc := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) { errc <- nodes[r].Start(addrs) }(r)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("Start: %v", err)
		}
	}

	bindA, bindB := newAppBinding(nil, workload.AppRunOptions{}, 1, 2), newAppBinding(nil, workload.AppRunOptions{}, 1, 2)
	portA0, err := bindA.jobPort(nodes[0], 1, 8)
	if err != nil {
		t.Fatalf("register A0: %v", err)
	}
	portA1, err := bindA.jobPort(nodes[1], 1, 8)
	if err != nil {
		t.Fatalf("register A1: %v", err)
	}
	portB1, err := bindB.jobPort(nodes[1], 2, 8)
	if err != nil {
		t.Fatalf("register B1: %v", err)
	}
	if _, err := newAppBinding(nil, workload.AppRunOptions{}, 1, 2).jobPort(nodes[0], 1, 8); err == nil {
		t.Errorf("duplicate job registration succeeded")
	}
	if _, err := newAppBinding(nil, workload.AppRunOptions{}, 1, 2).jobPort(nodes[0], 0, 8); err == nil {
		t.Errorf("job 0 registration succeeded; ids start at 1")
	}

	// Job 1 data from rank 0 must reach job 1's port on rank 1 only.
	bindA.SendData(0, 1, workload.DataMsg{Kind: 5, Work: 7})
	select {
	case d := <-portA1.dataCh:
		if d.from != 0 || d.m.Kind != 5 || d.m.Work != 7 {
			t.Errorf("job 1 data drifted: %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("job 1 data never arrived")
	}
	select {
	case d := <-portB1.dataCh:
		t.Errorf("job 2 port received job 1 data: %+v", d)
	default:
	}

	// Ctrl frames of job 2 reach job 2's port.
	jp, err := bindB.jobPort(nodes[0], 2, 8)
	if err != nil {
		t.Fatalf("register B0: %v", err)
	}
	jp.SendCtrl(1, termdet.Ctrl{Kind: termdet.CtrlAck})
	select {
	case c := <-portB1.ctrlCh:
		if c.from != 0 || c.c.Kind != termdet.CtrlAck {
			t.Errorf("job 2 ctrl drifted: %+v", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("job 2 ctrl never arrived")
	}

	// Self-delivery stays local and in order.
	bindA.SendData(0, 0, workload.DataMsg{Kind: 9})
	select {
	case d := <-portA0.dataCh:
		if d.from != 0 || d.m.Kind != 9 {
			t.Errorf("self-delivery drifted: %+v", d)
		}
	case <-time.After(time.Second):
		t.Fatalf("self-delivery never arrived")
	}

	// A frame for an unregistered job is dropped; the mesh stays alive.
	nodes[1].unregisterJob(2)
	jp.SendCtrl(1, termdet.Ctrl{Kind: termdet.CtrlAck})
	bindA.SendData(0, 1, workload.DataMsg{Kind: 6})
	select {
	case d := <-portA1.dataCh:
		if d.m.Kind != 6 {
			t.Errorf("post-drop data drifted: %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("mesh wedged after unknown-job frame")
	}

	// Per-port counters tally the job's own sends only.
	if c := portA0.counters(); c.DataMsgs != 3 {
		t.Errorf("port A0 data msgs %d, want 3", c.DataMsgs)
	}
	if c := portB1.counters(); c.DataMsgs != 0 || c.CtrlMsgs != 0 {
		t.Errorf("port B1 tallied traffic it never sent: %+v", c)
	}
}

// TestRunJobMatchesAppRunner hosts the same App both ways the port
// loop runs: as every node's own rank (AppRunner, loops on the node
// goroutines) and as a job on a resident mesh (RunJob, loops on their
// own goroutines over job-tagged frames). Under Dijkstra–Scholten both
// must move the same data and satisfy CtrlMsgs == DataMsgs + 2(n-1):
// one ack per data message, plus one detach ack and one termination
// announcement per non-root rank.
func TestRunJobMatchesAppRunner(t *testing.T) {
	const n = 4
	opts := workload.AppRunOptions{Term: termdet.ProtocolDS}
	own := &ringApp{laps: 3}
	ownRep, err := (&AppRunner{}).RunApp(n, own, opts)
	if err != nil {
		t.Fatalf("AppRunner: %v", err)
	}

	cl, err := NewCluster(n, core.MechIncrements, core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	job := &ringApp{laps: 3}
	jobRep, err := RunJob(cl.nodes, 1, 16, job, opts, time.Minute)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}

	for _, c := range []struct {
		name string
		app  *ringApp
		got  core.Counters
	}{{"AppRunner", own, ownRep.Counters}, {"RunJob", job, jobRep.Counters}} {
		if !c.app.Done() {
			t.Errorf("%s: detector concluded after %d hops, want %d", c.name, c.app.hops, n*c.app.laps)
		}
		if want := int64(n * c.app.laps); c.got.DataMsgs != want {
			t.Errorf("%s: data msgs %d, want %d", c.name, c.got.DataMsgs, want)
		}
		if want := c.got.DataMsgs + 2*(n-1); c.got.CtrlMsgs != want {
			t.Errorf("%s: ctrl msgs %d, want data %d + 2(n-1) = %d", c.name, c.got.CtrlMsgs, c.got.DataMsgs, want)
		}
	}
	if ownRep.Counters.DataMsgs != jobRep.Counters.DataMsgs || ownRep.Counters.CtrlMsgs != jobRep.Counters.CtrlMsgs {
		t.Errorf("hosting paths diverge: AppRunner data/ctrl %d/%d, RunJob %d/%d",
			ownRep.Counters.DataMsgs, ownRep.Counters.CtrlMsgs, jobRep.Counters.DataMsgs, jobRep.Counters.CtrlMsgs)
	}
}
