package net

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// This file is the net side of the application port (workload.App /
// workload.AppHost): hosting a distributed application — the
// multifrontal solver, or the service's synthetic load program — over
// the same mesh, codec and peer loops the synthetic workloads use.
// State messages, application data messages (workload.DataMsg) and
// termination-detection control frames (termdet.Ctrl) genuinely travel
// the links.
//
// Every hosted rank runs one loop, the application's Algorithm 1, over
// a JobPort: the rank's endpoint of one hosted App, holding its
// inbound state, data, ctrl and wake queues, its detector, its pending
// compute and its busy meter. Ports come in two kinds:
//
//   - job 0 is a node's own rank. It is fed by TypeData/TypeCtrl frames
//     and its loop runs on the node goroutine, draining the node's own
//     state queue. AppRunner hosts all n ranks of one App in one process
//     this way (callbacks serialized by the binding's lock); AppNode
//     hosts the single rank of a forked `loadex node` process.
//   - job id > 0 is one rank of a job multiplexed over a resident mesh
//     (RunJob, internal/service). It is fed by job-tagged frames that
//     share the per-peer links, and its loop runs on its own goroutine
//     until the job's detector fires.
//
// Quiescence is detector-driven for both: each port runs one
// termdet.Protocol, control frames bypass the application's Blocked
// gating, and the run ends when the detector announces global
// termination — there is no host-side outstanding-work counting.

// nodeAppBuf sizes the data and ctrl queues of a node's own app port.
const nodeAppBuf = 1 << 14

// appMsg is one inbound application data-channel message.
type appMsg struct {
	from int
	m    workload.DataMsg
}

// ctrlMsg is one inbound termination-detection control frame.
type ctrlMsg struct {
	from int
	c    termdet.Ctrl
}

// appCompute is one deferred compute interval.
type appCompute struct {
	seconds float64
	done    func()
}

// appBinding is one hosted App: the callback lock, the done latch and
// the ports of the ranks this process runs. It is the workload.AppHost
// the application sees.
type appBinding struct {
	app   workload.App
	opts  workload.AppRunOptions
	scale float64
	// ports holds each rank's endpoint; nil for ranks another process
	// hosts.
	ports []*JobPort
	// proto names the ports' termination-detection protocol.
	proto string

	// mu serializes every application callback across local ranks.
	mu sync.Mutex
	// ready is closed once Attach ran; rank loops park on it so the
	// application never sees a callback before its host is wired.
	ready chan struct{}

	// doneCh closes when a local rank's detector learns about global
	// termination (detected on rank 0, announced by CtrlTerm
	// elsewhere).
	doneCh   chan struct{}
	doneOnce sync.Once

	// lastDoneNS / termNS are wall-clock UnixNano stamps of the latest
	// local compute completion and the detector's first CtrlTerm
	// broadcast. Under fork only the process hosting rank 0 observes
	// the broadcast, so other processes report zero (unobserved).
	lastDoneNS atomic.Int64
	termNS     atomic.Int64
	// detectLatNS is the detection latency, latched at the moment the
	// CtrlTerm CAS succeeds — the same gate that orders the term
	// broadcast. Deriving it later from the two stamps was racy: a
	// late compute completion during drain could overwrite lastDoneNS
	// past termNS and silently zero the metric.
	detectLatNS atomic.Int64

	// startNS is the host clock epoch (UnixNano, set before the app
	// attaches); Now and span timestamps share it.
	startNS atomic.Int64
}

func newAppBinding(app workload.App, opts workload.AppRunOptions, scale float64, n int) *appBinding {
	if scale <= 0 {
		scale = 1
	}
	return &appBinding{
		app:    app,
		opts:   opts,
		scale:  scale,
		ports:  make([]*JobPort, n),
		ready:  make(chan struct{}),
		doneCh: make(chan struct{}),
	}
}

// detectLatency returns the latency latched at term broadcast; zero
// when this process never observed both endpoints.
func (b *appBinding) detectLatency() float64 {
	return float64(b.detectLatNS.Load()) / float64(time.Second)
}

// markTerm latches the term-broadcast stamp and, on the winning CAS,
// the detection latency — sampled under the same gate, so later
// compute completions cannot perturb it.
func (b *appBinding) markTerm() {
	now := time.Now().UnixNano()
	if b.termNS.CompareAndSwap(0, now) {
		if done := b.lastDoneNS.Load(); done > 0 && now >= done {
			b.detectLatNS.Store(now - done)
		}
	}
}

// now is the host-clock timestamp for trace events (0 before attach).
func (b *appBinding) now() float64 {
	s := b.startNS.Load()
	if s == 0 {
		return 0
	}
	return float64(time.Now().UnixNano()-s) / float64(time.Second)
}

// signalDone latches termination observed by a local detector.
func (b *appBinding) signalDone() {
	b.doneOnce.Do(func() { close(b.doneCh) })
}

// newPort builds rank nd's endpoint of the bound App as job id, with
// inbound queues of buf slots and the rank's detector.
func (b *appBinding) newPort(nd *Node, id int32, buf int) (*JobPort, error) {
	det, err := termdet.New(b.opts.Term, nd.n, nd.rank)
	if err != nil {
		return nil, err
	}
	b.proto = det.Name()
	jp := &JobPort{
		nd:     nd,
		id:     id,
		b:      b,
		det:    det,
		dataCh: make(chan appMsg, buf),
		ctrlCh: make(chan ctrlMsg, buf),
		wakeCh: make(chan struct{}, 1),
	}
	b.ports[nd.rank] = jp
	return jp, nil
}

// bindNode makes the bound App nd's own rank (job 0). Must run before
// Start launches the node loop, which then runs the port loop.
func (b *appBinding) bindNode(nd *Node) error {
	jp, err := b.newPort(nd, 0, nodeAppBuf)
	if err != nil {
		return err
	}
	// The node's own state queue also carries Invoke closures; the
	// port drains it in place of the node's program loop.
	jp.stateCh = nd.stateCh
	jp.rec = nd.opts.Rec
	nd.port = jp
	return nil
}

// jobPort builds rank nd's port for job id and registers it with the
// node's router.
func (b *appBinding) jobPort(nd *Node, id int32, buf int) (*JobPort, error) {
	buf = max(buf, 1)
	jp, err := b.newPort(nd, id, buf)
	if err != nil {
		return nil, err
	}
	jp.stateCh = make(chan inMsg, buf)
	jp.halt = b.doneCh
	if err := nd.registerJob(jp); err != nil {
		b.ports[nd.rank] = nil
		return nil, err
	}
	return jp, nil
}

// attach hands the App its host and releases the rank loops.
func (b *appBinding) attach() error {
	b.startNS.Store(time.Now().UnixNano())
	b.mu.Lock()
	err := b.app.Attach(b)
	b.mu.Unlock()
	if err != nil {
		return err
	}
	close(b.ready)
	return nil
}

// wait blocks until a local detector observed global termination, the
// timeout expired or quit closed, and returns the elapsed wall time.
// The diagnosis reads no application state: a wedged callback may
// hold the callback lock forever, and the timeout must still report.
func (b *appBinding) wait(timeout time.Duration, quit <-chan struct{}) (float64, error) {
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	var err error
	select {
	case <-b.doneCh:
	case <-quit:
		err = fmt.Errorf("mesh closed before termination (protocol %s)", b.proto)
	case <-t.C:
		err = fmt.Errorf("no termination detected after %s (protocol %s)", timeout, b.proto)
	}
	return b.now(), err
}

// N implements workload.AppHost.
func (b *appBinding) N() int { return len(b.ports) }

// Local implements workload.AppHost.
func (b *appBinding) Local(rank int) bool { return b.ports[rank] != nil }

// Now implements workload.AppHost.
func (b *appBinding) Now() float64 { return b.now() }

// Context implements workload.AppHost: the node's own rank sends the
// App's mechanism traffic on the node's state channel; a job's rank
// sends it as job-tagged state frames, isolated from the mesh's shared
// mechanism.
func (b *appBinding) Context(rank int) core.Context {
	jp := b.local(rank)
	if jp.id == 0 {
		return nodeCtx{jp.nd}
	}
	return jp
}

// SendData implements workload.AppHost. The detector is engaged before
// the message leaves, so no acknowledgment can outrun it.
func (b *appBinding) SendData(from, to int, m workload.DataMsg) {
	jp := b.local(from)
	jp.cnt.AddData(m.Bytes)
	jp.det.OnSend(jp, to)
	if to == from {
		// Applications do not normally self-send; deliver locally.
		select {
		case jp.dataCh <- appMsg{from: from, m: m}:
		case <-jp.nd.quit:
		}
		return
	}
	jp.send(to, DataMessage(from, m))
}

// Compute implements workload.AppHost.
func (b *appBinding) Compute(rank int, seconds float64, done func()) {
	jp := b.local(rank)
	if jp.pend != nil {
		panic(fmt.Sprintf("net: job %d rank %d started a task while busy", jp.id, rank))
	}
	jp.pend = &appCompute{seconds: seconds * b.opts.SpeedOf(rank), done: done}
}

// Wake implements workload.AppHost.
func (b *appBinding) Wake(rank int) {
	select {
	case b.local(rank).wakeCh <- struct{}{}:
	default:
	}
}

func (b *appBinding) local(rank int) *JobPort {
	jp := b.ports[rank]
	if jp == nil {
		panic(fmt.Sprintf("net: rank %d is not hosted here", rank))
	}
	return jp
}

// JobPort is one rank's endpoint of one hosted App: its inbound
// queues, detector, pending compute and busy meter. The rank's loop
// (run) owns the receive side, the detector and the pending compute;
// application callbacks for the rank send through it.
type JobPort struct {
	nd  *Node
	id  int32
	b   *appBinding
	det termdet.Protocol

	stateCh chan inMsg // job 0: the node's own state queue
	dataCh  chan appMsg
	ctrlCh  chan ctrlMsg
	wakeCh  chan struct{}
	// halt stops a job's loop once the job is over; nil for job 0,
	// whose loop runs until the node closes.
	halt <-chan struct{}
	// rec receives termdet.idle spans (job 0 only: concurrent jobs on
	// one rank would interleave spans on the rank's track).
	rec *chaos.Recorder

	// Loop-owned state.
	pend       *appCompute
	busy       core.BusyMeter
	idleSid    int64
	sleepTimer *time.Timer
	// cnt tallies the port's sends from the core byte hints (the
	// writers tally the real frames into the node's shared wire
	// stats); written by the rank's callbacks only.
	cnt core.Counters
}

// Rank returns the hosting node's rank.
func (jp *JobPort) Rank() int { return jp.nd.rank }

// N returns the mesh size.
func (jp *JobPort) N() int { return jp.nd.n }

// Now implements core.Context on the application's clock.
func (jp *JobPort) Now() float64 { return jp.b.now() }

// Send implements core.Context for a job's own mechanisms: one
// job-tagged state frame, charged with the core byte hint for the kind.
func (jp *JobPort) Send(to, kind int, payload any, bytes float64) {
	jp.cnt.AddState(kind, bytes)
	if to == jp.nd.rank {
		select {
		case jp.stateCh <- inMsg{from: to, kind: kind, payload: payload}:
		case <-jp.nd.quit:
		}
		return
	}
	m, err := StateMessage(jp.nd.rank, kind, payload)
	if err != nil {
		panic(err) // a core payload the codec cannot carry is a programming error
	}
	jp.send(to, m)
}

// Broadcast implements core.Context.
func (jp *JobPort) Broadcast(kind int, payload any, bytes float64) {
	for to := 0; to < jp.nd.n; to++ {
		if to != jp.nd.rank {
			jp.Send(to, kind, payload, bytes)
		}
	}
}

// SendCtrl implements termdet.Context: one control frame, its real
// encoded size tallied at the writer.
func (jp *JobPort) SendCtrl(to int, c termdet.Ctrl) {
	if c.Kind == termdet.CtrlTerm {
		jp.b.markTerm()
	}
	jp.cnt.AddCtrl(core.BytesCtrl)
	jp.send(to, CtrlMessage(jp.nd.rank, c))
}

// send posts a base-type frame to rank `to`, tagged with the port's
// job id; job 0 speaks the base types.
func (jp *JobPort) send(to int, m Message) {
	if jp.id != 0 {
		m.Type, m.Job = jobType(m.Type), jp.id
	}
	jp.nd.post(to, m)
}

// counters returns the port's tallies plus its busy time. Call it once
// the rank's loop has stopped.
func (jp *JobPort) counters() core.Counters {
	c := jp.cnt.Clone()
	c.BusyTime += jp.busy.Seconds
	return c
}

// run is the rank's Algorithm 1 loop: pending compute first (a task
// the application just started runs immediately), then detector
// control frames (highest priority, exempt from Blocked gating), the
// state queue, Blocked gating, application data, TryStart, and a
// passivity declaration to the detector before blocking when idle.
func (jp *JobPort) run() {
	b, r, quit := jp.b, jp.nd.rank, jp.nd.quit
	defer jp.endIdleSpan()
	select {
	case <-b.ready:
	case <-quit:
		return
	case <-jp.halt:
		return
	}
	for {
		select {
		case <-quit:
			return
		case <-jp.halt:
			return
		default:
		}
		if p := jp.pend; p != nil {
			jp.pend = nil
			jp.sleep(p.seconds)
			b.mu.Lock()
			p.done()
			b.mu.Unlock()
			b.lastDoneNS.Store(time.Now().UnixNano())
			continue
		}
		// Priority 0: detector control frames.
		select {
		case m := <-jp.ctrlCh:
			jp.handleCtrl(m)
			continue
		default:
		}
		// Priority 1: state-information messages.
		select {
		case m := <-jp.stateCh:
			jp.handleState(m)
			continue
		default:
		}
		b.mu.Lock()
		blocked := b.app.Blocked(r)
		b.mu.Unlock()
		if blocked {
			// Snapshot in progress: treat only state messages (and
			// control frames — a blocked rank still acknowledges).
			select {
			case m := <-jp.ctrlCh:
				jp.handleCtrl(m)
			case m := <-jp.stateCh:
				jp.handleState(m)
			case <-quit:
				return
			case <-jp.halt:
				return
			}
			continue
		}
		// Priority 2: application data messages.
		select {
		case m := <-jp.dataCh:
			jp.handleData(m)
			continue
		default:
		}
		// Priority 3: local ready tasks. TryStart can open a snapshot
		// (Acquire broadcast → Blocked), so the busy meter observes
		// here too — otherwise the request-to-first-reply interval
		// would be dropped from BusyTime (the simulator host meters
		// this transition as well).
		b.mu.Lock()
		started := b.app.TryStart(r)
		stillBlocked := b.app.Blocked(r)
		jp.busy.Observe(stillBlocked)
		b.mu.Unlock()
		if started {
			continue
		}
		if !stillBlocked {
			// Nothing pending, nothing startable, not snapshot-blocked:
			// declare the rank passive. The detector reactivates it on
			// the next data-message receipt; detection closes the run.
			// The park below is a termdet.idle trace span — the per-rank
			// idle time the paper's blocked-time argument is about.
			if jp.rec != nil && jp.idleSid == 0 {
				jp.idleSid = jp.rec.SpanBegin(r, "termdet.idle", b.now())
			}
			jp.det.Passive(jp)
			if jp.det.Terminated() {
				b.signalDone()
			}
		}
		select {
		case m := <-jp.ctrlCh:
			jp.endIdleSpan()
			jp.handleCtrl(m)
		case m := <-jp.stateCh:
			jp.endIdleSpan()
			jp.handleState(m)
		case m := <-jp.dataCh:
			jp.endIdleSpan()
			jp.handleData(m)
		case <-jp.wakeCh:
			jp.endIdleSpan()
		case <-quit:
			return
		case <-jp.halt:
			return
		}
	}
}

// endIdleSpan closes the open termdet.idle span, if any — the rank
// just woke up.
func (jp *JobPort) endIdleSpan() {
	if jp.idleSid != 0 {
		jp.rec.SpanEnd(jp.nd.rank, "termdet.idle", jp.idleSid, jp.b.now())
		jp.idleSid = 0
	}
}

// handleState treats one state-queue item. Control closures (Invoke:
// counter sampling) bypass the application.
func (jp *JobPort) handleState(m inMsg) {
	if m.ctl != nil {
		m.ctl()
		return
	}
	b := jp.b
	b.mu.Lock()
	b.app.HandleState(jp.nd.rank, m.from, m.kind, m.payload)
	jp.busy.Observe(b.app.Blocked(jp.nd.rank))
	b.mu.Unlock()
}

// handleData treats one application data message.
func (jp *JobPort) handleData(m appMsg) {
	jp.det.OnReceive(jp, m.from)
	b := jp.b
	b.mu.Lock()
	b.app.HandleData(jp.nd.rank, m.from, m.m)
	b.mu.Unlock()
}

// handleCtrl treats one detector control frame. It never touches the
// application, so it runs outside the callback lock.
func (jp *JobPort) handleCtrl(m ctrlMsg) {
	jp.det.OnCtrl(jp, m.from, m.c)
	if jp.det.Terminated() {
		jp.b.signalDone()
	}
}

// sleep spends one compute interval of wall clock, bounded by the
// node's shutdown. The port's timer is reused across intervals:
// time.After would leave one uncollected runtime timer per compute
// interval, which adds up under short intervals on long runs.
func (jp *JobPort) sleep(seconds float64) {
	d := time.Duration(seconds * jp.b.scale * float64(time.Second))
	if d <= 0 {
		return
	}
	if jp.sleepTimer == nil {
		jp.sleepTimer = time.NewTimer(d)
	} else {
		jp.sleepTimer.Reset(d)
	}
	select {
	case <-jp.sleepTimer.C:
	case <-jp.nd.quit:
		if !jp.sleepTimer.Stop() {
			<-jp.sleepTimer.C // drain so a later Reset starts clean
		}
	}
}

// registerJob makes jp the node's port for its job id. Ids are service-global
// and start at 1; registering an id twice is an error.
func (nd *Node) registerJob(jp *JobPort) error {
	if jp.id <= 0 {
		return fmt.Errorf("net: job id %d out of range (ids start at 1)", jp.id)
	}
	nd.jobMu.Lock()
	defer nd.jobMu.Unlock()
	if nd.jobs == nil {
		nd.jobs = make(map[int32]*JobPort)
	}
	if nd.jobs[jp.id] != nil {
		return fmt.Errorf("net: rank %d job %d already registered", nd.rank, jp.id)
	}
	nd.jobs[jp.id] = jp
	return nil
}

// unregisterJob removes this rank's port for job id. Frames still in
// flight for the id are dropped by readLoop from then on — by the time
// a job's termination detector has fired on every rank, no peer has
// more of its frames to send, so the drop path only sees stragglers
// (the termination announcement, frames of canceled jobs).
func (nd *Node) unregisterJob(id int32) {
	nd.jobMu.Lock()
	delete(nd.jobs, id)
	nd.jobMu.Unlock()
}

// route delivers one inbound data, ctrl or state frame of a hosted App
// to its port: the node's own for the base types, the registered job's
// for job-tagged ones. It blocks (against quit) while the port's queue
// is full so per-pair FIFO order survives backpressure, and reports
// false when no port takes the frame.
func (nd *Node) route(m *Message) bool {
	jp := nd.port
	base := jobBase(m.Type)
	if base != m.Type {
		nd.jobMu.RLock()
		jp = nd.jobs[m.Job]
		nd.jobMu.RUnlock()
	}
	if jp == nil {
		return false
	}
	switch base {
	case TypeState:
		select {
		case jp.stateCh <- inMsg{from: int(m.From), kind: int(m.Kind), payload: m.StatePayload()}:
		case <-nd.quit:
		}
	case TypeData:
		select {
		case jp.dataCh <- appMsg{from: int(m.From), m: m.Data}:
		case <-nd.quit:
		}
	case TypeCtrl:
		select {
		case jp.ctrlCh <- ctrlMsg{from: int(m.From), c: m.Ctrl}:
		case <-nd.quit:
		}
	}
	return true
}

// appReportOf samples quiesced nodes' transport tallies into a host
// report (real encoded frame-body sizes from the writers).
func appReportOf(nodes []*Node, elapsed float64) *workload.AppReport {
	rep := &workload.AppReport{Time: elapsed}
	for _, nd := range nodes {
		if nd == nil {
			continue
		}
		rep.Counters.Merge(nd.sampleCounters())
		tr := nd.Transport()
		rep.WireMsgs += tr.MsgsIn
		rep.WireBytes += tr.BytesIn
	}
	return rep
}

// AppRunner implements workload.AppRunner over an in-process mesh: the
// same links, codec and graceful-shutdown machinery as Cluster, with the
// node main loops running a hosted application. The zero value links
// the nodes over localhost TCP (runtime "net"); NewLiveAppRunner links
// them in memory (runtime "live"). State, data and control tallies in
// the report are real encoded frame-body sizes counted at the writers.
type AppRunner struct {
	// Opts is the node option template (codec, timeouts, logging);
	// Initial and Speed are ignored — application state comes from the
	// App itself.
	Opts Options
	// TimeScale is the wall-clock duration of one application second of
	// compute (default 1).
	TimeScale float64
	// Timeout bounds the whole run (default 120s).
	Timeout time.Duration

	// mem links the nodes in memory instead of over TCP.
	mem bool
}

// NewLiveAppRunner returns the live runtime's application runner: the
// nodes of each run linked over in-memory connection pairs.
func NewLiveAppRunner(opts Options) *AppRunner { return &AppRunner{Opts: opts, mem: true} }

// Runtime implements workload.AppRunner.
func (r *AppRunner) Runtime() string { return runtimeName(r.mem) }

// runtimeName names the runtime a link kind implements.
func runtimeName(mem bool) string {
	if mem {
		return "live"
	}
	return "net"
}

// RunApp implements workload.AppRunner.
func (r *AppRunner) RunApp(n int, app workload.App, opts workload.AppRunOptions) (*workload.AppReport, error) {
	b := newAppBinding(app, opts, r.TimeScale, n)
	nodeOpts := r.Opts
	nodeOpts.Initial, nodeOpts.Speed = nil, nil
	if nodeOpts.Rec == nil {
		// App cells record through the workload layer; the nodes share
		// the same recorder so host-level spans (termdet.idle) land in
		// the same trace.
		nodeOpts.Rec = opts.Rec
	}

	// The node's own exchanger is unused in app mode (the application
	// owns its mechanisms); any registered mechanism satisfies the
	// constructor.
	nodes, err := startMesh(n, r.mem, func(rank int) (*Node, error) {
		nd, err := NewNode(rank, n, core.MechNaive, core.Config{}, nodeOpts)
		if err != nil {
			return nil, err
		}
		return nd, b.bindNode(nd)
	})
	if err != nil {
		return nil, err
	}
	if err := b.attach(); err != nil {
		stopNodes(nodes)
		return nil, err
	}
	// Sample the makespan at quiescence, before the mesh teardown
	// (graceful Close — writer flushes, FIN exchanges — can take as
	// long as a small run itself).
	elapsed, err := b.wait(r.Timeout, nil)
	if err != nil {
		err = fmt.Errorf("net: %w", err)
	}
	stopNodes(nodes)
	rep := appReportOf(nodes, elapsed)
	rep.DetectLatency = b.detectLatency()
	return rep, err
}

// AppNode hosts a single rank of an application on one Node — the
// forked deployment behind `loadex cluster -scenario solver-wl` /
// `loadex node -scenario solver-wl -rank r`. Each OS process builds
// the application instance deterministically from the shared flags,
// binds it to its node before Start, and runs its one local rank; the
// detector's CtrlTerm announcement (from whichever process hosts rank
// 0) releases every process.
type AppNode struct {
	nd *Node
	b  *appBinding
}

// NewAppNode binds app's rank nd.Rank() to nd. Call it after NewNode
// and before Start (the app-mode main loop parks until Run attaches
// the application).
func NewAppNode(nd *Node, app workload.App, opts workload.AppRunOptions, timeScale float64) (*AppNode, error) {
	b := newAppBinding(app, opts, timeScale, nd.n)
	if err := b.bindNode(nd); err != nil {
		return nil, err
	}
	return &AppNode{nd: nd, b: b}, nil
}

// Run attaches the application (call after the node's Start succeeded)
// and blocks until the detector announces global termination, then
// returns the node's transport report. The caller still owns the node
// and must Close it.
func (an *AppNode) Run(timeout time.Duration) (*workload.AppReport, error) {
	if err := an.b.attach(); err != nil {
		return nil, err
	}
	elapsed, err := an.b.wait(timeout, nil)
	if err != nil {
		return nil, fmt.Errorf("net: rank %d: %w", an.nd.rank, err)
	}
	// The rank loop is still running (it stops at Close); the sample
	// must go through the node goroutine.
	nodes := []*Node{an.nd}
	var rep *workload.AppReport
	an.nd.Invoke(func(core.Context, core.Exchanger) {
		rep = appReportOf(nodes, elapsed)
	})
	if rep == nil {
		rep = appReportOf(nodes, elapsed)
	}
	rep.DetectLatency = an.b.detectLatency()
	return rep, nil
}

// RunJob hosts app as job id on a running mesh (nodes in rank order):
// every rank gets a port fed by job-tagged frames over the shared links
// and runs its Algorithm 1 loop on its own goroutine, next to the
// node's own loop and other jobs' ports. buf sizes each port's inbound
// queues: a full port blocks the shared link's reader, so buf must
// cover the largest burst a peer can send before the rank drains. The
// run ends when the job's detector fires, the mesh closes or timeout
// expires; the report carries the job's own tallies (the wire stats
// are the mesh's, shared by every job).
func RunJob(nodes []*Node, id int32, buf int, app workload.App, opts workload.AppRunOptions, timeout time.Duration) (*workload.AppReport, error) {
	b := newAppBinding(app, opts, 1, len(nodes))
	defer func() {
		for _, jp := range b.ports {
			if jp != nil {
				jp.nd.unregisterJob(id)
			}
		}
	}()
	for _, nd := range nodes {
		if _, err := b.jobPort(nd, id, buf); err != nil {
			return nil, err
		}
	}

	var wg sync.WaitGroup
	for _, jp := range b.ports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jp.run()
		}()
	}
	err := b.attach()
	var elapsed float64
	if err == nil {
		if elapsed, err = b.wait(timeout, nodes[0].quit); err != nil {
			err = fmt.Errorf("net: job %d: %w", id, err)
		}
	}
	b.signalDone() // release the rank loops
	wg.Wait()
	if err != nil {
		return nil, err
	}
	rep := &workload.AppReport{Time: elapsed, DetectLatency: b.detectLatency()}
	for _, jp := range b.ports {
		rep.Counters.Merge(jp.counters())
	}
	return rep, nil
}
