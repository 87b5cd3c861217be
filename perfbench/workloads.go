package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kascade/internal/benchkit"
	"kascade/internal/control"
	"kascade/internal/core"
	"kascade/internal/transport"
)

// workload is one input set of the benchmark. Every workload is a closed
// loop: a client starts its next broadcast when its previous one ended.
type workload struct {
	name      string
	substrate string
	shape     string
	setup     func(b *bench, tiny bool) (environment, error)
}

const (
	loopbackTCP = "loopback TCP (kernel sockets on 127.0.0.1)"
	fabric      = "in-memory fabric (rate-shaped links)"
)

// workloads are the ones BENCHMARK.json declares, in its order.
var workloads = []*workload{
	{
		name:      "chain-bulk-tcp",
		substrate: loopbackTCP,
		shape:     "1 client; 256 MiB payloads through the control plane to 7 in-process agents (8-node chain)",
		setup: func(b *bench, tiny bool) (environment, error) {
			size := pick(tiny, 256<<20, 4<<20)
			return newCtlEnv(b, 7, func(*rand.Rand) []int64 { return []int64{size} })
		},
	},
	{
		name:      "tree-pair-tcp",
		substrate: loopbackTCP,
		shape:     "2 clients; overlapping 64 MiB payloads over a 16-node binary tree; one shared engine per host",
		setup: func(b *bench, tiny bool) (environment, error) {
			return newSessEnv(b, sessShape{nodes: 16, clients: 2, size: pick(tiny, 64<<20, 2<<20), topology: core.TopologyTree(2)})
		},
	},
	{
		name:      "hetero-tree-fabric",
		substrate: fabric,
		shape: "1 client; 32 MiB payloads over a 16-node binary tree with -rerank; 64 MiB/s links, node 1 sends at 6.4 MiB/s; " +
			"one late joiner grafted at 50%",
		setup: func(b *bench, tiny bool) (environment, error) {
			return newSessEnv(b, sessShape{nodes: 16, clients: 1, size: pick(tiny, 32<<20, 4<<20), topology: core.TopologyTree(2),
				linkRate: 64 << 20, slowNode: 1, rerank: true, joinAt: 0.5})
		},
	},
}

// smallFiles is the Fig 14 regime: admission, dials, HELLO, the report
// ring and teardown dominate. It runs by name but is not declared in
// BENCHMARK.json: its wall-clock metrics track the host's CPU steal (3%
// steal added 18% to completion_ms_p50, 13% added 40%), so ten runs of the
// same code spread beyond any regression bound the benchmark uses.
var smallFiles = &workload{
	name:      "small-files-tcp",
	substrate: loopbackTCP,
	shape:     "1 client; 64 KiB-4 MiB log-uniform payloads through the control plane to 8 in-process agents (9-node chain)",
	setup: func(b *bench, tiny bool) (environment, error) {
		count, hi := 48, int64(4<<20)
		if tiny {
			count, hi = 4, 256<<10
		}
		return newCtlEnv(b, 8, func(rng *rand.Rand) []int64 { return logUniform(rng, count, 64<<10, hi) })
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range append(workloads, smallFiles) {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func pick(tiny bool, full, small int64) int64 {
	if tiny {
		return small
	}
	return full
}

// cliOptions are the protocol defaults of the kascade CLI: 1 MiB chunks,
// a 64-chunk window, the one-second stall timer and the bulk class. Splice
// stays off: every receiver here has a real sink, and splice only ever
// engages on sink-less relays.
func cliOptions() core.Options {
	return core.Options{
		ChunkSize:         1 << 20,
		WindowChunks:      64,
		WriteStallTimeout: time.Second,
		Class:             core.ClassBulk,
	}
}

// payloadSeed derives payload j's pattern seed from the run's seed.
func payloadSeed(seed uint64, j int) uint64 {
	return seed*0x9E3779B97F4A7C15 + uint64(j+1)
}

// tracedOr wraps n for traced runs.
func (b *bench) tracedOr(n transport.Network) transport.Network {
	if b.rec == nil {
		return n
	}
	return tracedNet{inner: n, rec: b.rec}
}

// sessShape describes a workload driven through core.StartSession.
type sessShape struct {
	nodes, clients int
	size           int64
	topology       string
	// Fabric runs: every link's rate, and a node whose outbound links
	// run at a tenth of it.
	linkRate float64
	slowNode int
	rerank   bool
	// joinAt grafts one late joiner once any receiver holds this share.
	joinAt float64
}

// sessEnv runs in-process sessions with one engine per host, as `kascade
// agent` runs them.
type sessEnv struct {
	b        *bench
	shape    sessShape
	nets     []transport.Network
	engs     []*core.Engine
	peers    []core.Peer
	joinNet  transport.Network
	joinEng  *core.Engine
	payloads [][]byte // one per client
}

func newSessEnv(b *bench, shape sessShape) (*sessEnv, error) {
	e := &sessEnv{b: b, shape: shape}
	var fab *transport.Fabric
	if shape.linkRate > 0 {
		fab = transport.NewFabric(1 << 20)
		fab.SetDefaultProfile(transport.Profile{Rate: shape.linkRate})
	}
	addHost := func(name string) (transport.Network, *core.Engine, error) {
		var n transport.Network = transport.TCP{}
		addr := "127.0.0.1:0"
		if fab != nil {
			n, addr = fab.Host(name), name+":7000"
		}
		n = b.tracedOr(n)
		eng, err := core.NewEngine(n, addr, core.EngineOptions{})
		if err != nil {
			return nil, nil, err
		}
		e.engs = append(e.engs, eng)
		return n, eng, nil
	}
	for i := 0; i < shape.nodes; i++ {
		name := fmt.Sprintf("n%d", i+1)
		n, eng, err := addHost(name)
		if err != nil {
			e.close()
			return nil, err
		}
		e.nets = append(e.nets, n)
		e.peers = append(e.peers, core.Peer{Name: name, Addr: eng.Addr()})
	}
	if fab != nil && shape.slowNode > 0 {
		slow := transport.Profile{Rate: shape.linkRate / 10}
		for i := range e.peers {
			if i != shape.slowNode {
				fab.SetLinkProfile(e.peers[shape.slowNode].Name, e.peers[i].Name, slow)
			}
		}
	}
	if shape.joinAt > 0 {
		n, eng, err := addHost("j1")
		if err != nil {
			e.close()
			return nil, err
		}
		e.joinNet, e.joinEng = n, eng
	}
	return e, nil
}

func (e *sessEnv) load() {
	for c := 0; c < e.shape.clients; c++ {
		e.payloads = append(e.payloads, benchkit.Payload(e.shape.size, payloadSeed(e.b.cfg.seed, c)))
	}
}

func (e *sessEnv) engines() []*core.Engine { return e.engs }

func (e *sessEnv) close() {
	for _, eng := range e.engs {
		eng.Close()
	}
}

func (e *sessEnv) round(ctx context.Context) []*bcast {
	out := make([]*bcast, e.shape.clients)
	for c := range out {
		out[c] = e.b.newBcast(e.payloads[c], e.shape.nodes)
		out[c].arity, _ = core.TreeArity(e.shape.topology)
	}
	var wg sync.WaitGroup
	for _, bc := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.broadcast(ctx, bc)
		}()
	}
	wg.Wait()
	return out
}

// broadcast runs one session to completion and checks it.
func (e *sessEnv) broadcast(ctx context.Context, bc *bcast) {
	opts := cliOptions()
	if e.shape.rerank {
		// benchkit's bench-speed cadence: a broadcast here lasts about a
		// second, and the production 500 ms cadence would spend half of
		// it before the first migration.
		opts.Rerank = true
		opts.RerankInterval = 150 * time.Millisecond
		opts.RerankMinInterval = 300 * time.Millisecond
	}
	cfg := core.SessionConfig{
		Peers:      e.peers,
		Opts:       opts,
		Session:    bc.sid,
		Topology:   e.shape.topology,
		NetworkFor: func(i int) transport.Network { return e.nets[i] },
		EngineFor:  func(i int) *core.Engine { return e.engs[i] },
		InputFile:  bc.src,
		InputSize:  bc.size,
		SinkFor:    func(i int) io.Writer { return bc.sinks[i] },
		Trace:      e.b.tracer(bc),
	}

	// The late joiner is grafted from a sink's write path once any
	// receiver holds the join mark; the join itself runs on its own
	// goroutine, as a second client would.
	var sess *core.Session
	ready := make(chan struct{})
	joined := make(chan struct{})
	var triggered atomic.Bool
	if e.shape.joinAt > 0 {
		bc.joiner = newSink(e.b.rec, bc.id, bc.src.p)
		bc.joiner.logArrivals = true
		trigger := func() {
			if !triggered.CompareAndSwap(false, true) {
				return
			}
			go func() {
				defer close(joined)
				<-ready
				e.join(ctx, sess, bc)
			}()
		}
		for _, s := range bc.sinks[1:] {
			s.mark, s.onMark = int64(float64(bc.size)*e.shape.joinAt), trigger
		}
	}

	bc.start = time.Now()
	s, err := core.StartSession(ctx, cfg)
	bc.startDur = time.Since(bc.start)
	if e.b.rec != nil {
		e.b.rec.add(lSessionStart, bc.id, bc.start)
	}
	if err != nil {
		bc.end = time.Now()
		bc.fail("start session: %v", err)
		return
	}
	sess = s
	close(ready)
	res, err := s.Wait()
	if triggered.Load() {
		<-joined
	} else if e.shape.joinAt > 0 {
		bc.fail("late join never triggered")
	}
	bc.end = time.Now()
	if e.b.rec != nil {
		e.b.rec.addTo(e.b.rec.shared, lBroadcast, bc.id, bc.start, bc.end)
	}
	if err != nil {
		bc.fail("session: %v", err)
	}
	if res != nil {
		for i, nerr := range res.NodeErrs {
			if nerr != nil {
				bc.fail("node %d: %v", i, nerr)
			}
		}
		bc.checkReport(res.Report)
	}
	bc.verify()
}

// join grafts the late joiner onto the live session and waits for it.
func (e *sessEnv) join(ctx context.Context, s *core.Session, bc *bcast) {
	bc.joinCall = time.Now()
	h, err := s.Join(ctx, core.JoinConfig{
		Peer:    core.Peer{Name: "j1"},
		Network: e.joinNet,
		Engine:  e.joinEng,
		Sink:    bc.joiner,
		Trace:   e.b.tracer(bc),
	})
	bc.joinDur = time.Since(bc.joinCall)
	if e.b.rec != nil {
		e.b.rec.add(lJoinNegotiate, bc.id, bc.joinCall)
	}
	if err != nil {
		bc.fail("late join: %v", err)
		return
	}
	bc.joinHead = h.Grant.Head
	if _, err := h.Wait(); err != nil {
		bc.fail("joiner: %v", err)
	}
}

// ctlEnv drives every broadcast through the control plane, as `kascade
// -N` does against running agents: PREPARE on every agent, START, the
// sender node, then each agent's RESULT.
type ctlEnv struct {
	b         *bench
	agents    []*agent
	clients   []*control.Client
	senderNet transport.Network

	draw     func(*rand.Rand) []int64
	sizes    []int64
	payloads [][]byte
	next     int
}

// agent is one in-process agent: its engine and the control server in
// front of it.
type agent struct {
	lst  net.Listener
	eng  *core.Engine
	net  transport.Network
	srv  *control.Server
	done sync.WaitGroup
}

// newCtlEnv starts the agents and the client's control channels; draw
// picks the payload sizes from the run's seeded generator.
func newCtlEnv(b *bench, agents int, draw func(*rand.Rand) []int64) (*ctlEnv, error) {
	e := &ctlEnv{b: b, senderNet: b.tracedOr(transport.TCP{}), draw: draw}
	for i := 0; i < agents; i++ {
		a, err := e.startAgent()
		if err != nil {
			e.close()
			return nil, err
		}
		e.agents = append(e.agents, a)
	}
	for _, a := range e.agents {
		t0 := time.Now()
		c, err := control.Dial(a.lst.Addr().String(), 10*time.Second, control.ClientOptions{})
		if err != nil {
			e.close()
			return nil, err
		}
		b.controlDialMs = append(b.controlDialMs, ms(time.Since(t0)))
		e.clients = append(e.clients, c)
	}
	return e, nil
}

func (e *ctlEnv) startAgent() (*agent, error) {
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a := &agent{lst: lst, net: e.b.tracedOr(transport.TCP{})}
	a.eng, err = core.NewEngine(a.net, "127.0.0.1:0", core.EngineOptions{})
	if err != nil {
		lst.Close()
		return nil, err
	}
	a.srv = &control.Server{
		Engine:   a.eng,
		DataAddr: func(net.Conn) string { return a.eng.Addr() },
		Run:      func(ctx context.Context, req control.StartRequest) control.ResultReply { return e.runNode(ctx, a, req) },
	}
	a.done.Add(1)
	go func() {
		defer a.done.Done()
		for {
			conn, err := lst.Accept()
			if err != nil {
				return
			}
			a.done.Add(1)
			go func() {
				defer a.done.Done()
				defer conn.Close()
				_ = a.srv.ServeConn(conn, conn)
			}()
		}
	}()
	return a, nil
}

// runNode is the agent side of START: a node on the agent's engine,
// writing into the broadcast's verifying sink.
func (e *ctlEnv) runNode(ctx context.Context, a *agent, req control.StartRequest) control.ResultReply {
	bc := e.b.lookup(req.Session)
	if bc == nil || req.Index < 1 || req.Index >= len(bc.sinks) {
		return control.ResultReply{Err: fmt.Sprintf("no broadcast for session %d slot %d", req.Session, req.Index)}
	}
	node, err := core.NewNode(core.NodeConfig{
		Index:   req.Index,
		Plan:    core.Plan{Peers: req.Peers, Opts: req.Opts, Session: req.Session, Transport: req.Transport, Topology: req.Topology},
		Network: a.net,
		Engine:  a.eng,
		Sink:    bc.sinks[req.Index],
		Trace:   e.b.tracer(bc),
	})
	if err != nil {
		return control.ResultReply{Err: err.Error()}
	}
	report, runErr := node.Run(ctx)
	resp := control.ResultReply{Report: report, Bytes: node.BytesReceived()}
	if runErr != nil {
		resp.Err = runErr.Error()
	}
	return resp
}

func (e *ctlEnv) load() {
	e.sizes = e.draw(rand.New(rand.NewPCG(e.b.cfg.seed, 0x5eed)))
	for j, size := range e.sizes {
		e.payloads = append(e.payloads, benchkit.Payload(size, payloadSeed(e.b.cfg.seed, j)))
	}
}

// logUniform draws count sizes log-uniformly between lo and hi, stratified
// so every seed covers the range alike, in shuffled order.
func logUniform(rng *rand.Rand, count int, lo, hi int64) []int64 {
	span := math.Log(float64(hi) / float64(lo))
	sizes := make([]int64, count)
	for j := range sizes {
		u := (float64(j) + rng.Float64()) / float64(count)
		sizes[j] = int64(float64(lo) * math.Exp(u*span))
	}
	rng.Shuffle(count, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

func (e *ctlEnv) engines() []*core.Engine {
	var out []*core.Engine
	for _, a := range e.agents {
		out = append(out, a.eng)
	}
	return out
}

func (e *ctlEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	for _, a := range e.agents {
		a.lst.Close()
		a.eng.Close()
		a.done.Wait()
	}
}

func (e *ctlEnv) round(ctx context.Context) []*bcast {
	payload := e.payloads[e.next%len(e.payloads)]
	e.next++
	bc := e.b.newBcast(payload, len(e.agents)+1)
	e.broadcast(ctx, bc)
	return []*bcast{bc}
}

// broadcast mirrors the CLI's sender: admission on every agent, the plan,
// START, the sender node on its own listener, then every agent's result.
func (e *ctlEnv) broadcast(ctx context.Context, bc *bcast) {
	rec := e.b.rec
	opts := cliOptions()
	bc.start = time.Now()
	defer func() {
		bc.end = time.Now()
		if rec != nil {
			rec.addTo(rec.shared, lBroadcast, bc.id, bc.start, bc.end)
		}
		bc.verify()
	}()

	replies := make([]*control.PrepareReply, len(e.clients))
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			replies[i], errs[i] = c.Prepare(ctx, control.PrepareRequest{
				Session: bc.sid, Reservation: opts.PoolReservation(), Class: opts.Class,
			})
			if rec != nil {
				rec.add(lControlPrepare, bc.id, t0)
			}
		}()
	}
	wg.Wait()
	bc.prepareDur = time.Since(bc.start)
	release := func() {
		for _, c := range e.clients {
			_, _ = c.Release(ctx, bc.sid)
		}
	}
	for i, err := range errs {
		if err != nil {
			bc.fail("prepare on agent %d: %v", i+1, err)
		}
	}
	if len(bc.failures) > 0 {
		release()
		return
	}

	lst, err := e.senderNet.Listen("127.0.0.1:0")
	if err != nil {
		bc.fail("binding sender: %v", err)
		release()
		return
	}
	defer lst.Close()
	peers := []core.Peer{{Name: "sender", Addr: lst.Addr()}}
	for i, r := range replies {
		peers = append(peers, core.Peer{Name: fmt.Sprintf("agent%d", i+1), Addr: r.DataAddr})
	}
	plan := core.Plan{Peers: peers, Opts: opts, Session: bc.sid, Topology: core.TopologyChain}

	t1 := time.Now()
	pending := make([]*control.Pending, len(e.clients))
	for i, c := range e.clients {
		t := time.Now()
		pending[i], err = c.Start(control.StartRequest{Session: bc.sid, Index: i + 1, Peers: peers, Opts: opts, Topology: plan.Topology})
		if rec != nil {
			rec.add(lControlStart, bc.id, t)
		}
		if err != nil {
			bc.fail("start on agent %d: %v", i+1, err)
			release()
			return
		}
	}
	bc.ctlStartDur = time.Since(t1)

	node, err := core.NewNode(core.NodeConfig{
		Index: 0, Plan: plan, Network: e.senderNet, Listener: lst,
		InputFile: bc.src, InputSize: bc.size, Trace: e.b.tracer(bc),
	})
	bc.startDur = time.Since(bc.start)
	if err != nil {
		bc.fail("sender node: %v", err)
		release()
		return
	}
	report, err := node.Run(ctx)
	if err != nil {
		bc.fail("sender: %v", err)
	}
	bc.checkReport(report)

	t2 := time.Now()
	for i, p := range pending {
		t := time.Now()
		res, err := p.Wait(ctx)
		if rec != nil {
			rec.add(lControlResult, bc.id, t)
		}
		switch {
		case err != nil:
			bc.fail("result from agent %d: %v", i+1, err)
		case res.Err != "":
			bc.fail("agent %d: %s", i+1, res.Err)
		}
	}
	bc.resultDur = time.Since(t2)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
