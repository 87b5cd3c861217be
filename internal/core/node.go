// Package core implements the Kascade protocol (§III of the paper): a
// topology-aware, fault-tolerant pipelined broadcast over reliable byte
// streams.
//
// Every pipeline member runs a Node. Node 0 (the sender) reads the input
// (file or stream), chunks it, and serves its successor; every other node
// answers GET(offset) on each new inbound connection, appends DATA chunks
// to its replay window, writes them to its local sink, and forwards them
// to its own successor. After END (or QUIT), the failure report flows down
// the pipeline, the last node delivers it to node 0 over a ring-closing
// connection, and PASSED acknowledgements flow back up, letting each node
// exit (Fig 5).
//
// The package is layered so one process can carry many broadcasts at once:
//
//   - Engine (engine.go) is the per-process accept layer: one shared data
//     listener, a session registry routing connections by the session ID in
//     their HELLO, and the global memory budget the per-session chunk pools
//     are accounted against.
//   - Node (this file) is the per-session lifecycle: configuration, the
//     Run state machine, and the failure-report bookkeeping.
//   - The data plane (dataplane.go, store.go, chunkpool.go, downstream.go)
//     moves payload: pooled ref-counted chunks, the ring-buffer replay
//     window, and the vectored downstream sender.
//   - The recovery plane (recovery.go) implements §III-D: the upstream
//     rewiring loop, the ping-based failure detector, and PGET gap fetches.
//   - The dispatch layer (dispatch.go) serves the accept side of one node
//     that owns its listener; engine-attached nodes receive connections
//     from the engine instead.
//
// Failures are detected exactly as §III-D1 describes: syscall errors on
// read/write, plus timers on stalled writes resolved by a PING to the
// stalled successor — answered means "alive, keep waiting", unanswered
// means "dead, skip to the next alive successor and replay from its GET
// offset". Recovery data comes from the in-memory window; when the window
// no longer holds the requested offset the sender answers FORGET and the
// successor fetches the gap from node 0 with PGET (file-backed sources) or
// abandons with a QUIT cascade (streamed sources), per §III-D2.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"kascade/internal/transport"
)

// NodeConfig wires one pipeline member to its environment.
type NodeConfig struct {
	// Index is this node's position in Plan.Peers (0 = sender).
	Index int
	// Plan is the shared pipeline description (including the broadcast
	// session ID on multiplexed engines).
	Plan Plan
	// Network is the node's dialing surface (and, with Listener, its
	// listening surface).
	Network transport.Network
	// Listener is the pre-bound listener for Plan.Peers[Index].Addr.
	// Binding happens before nodes start so that no dial races a listen.
	// Exactly one of Listener and Engine must be set.
	Listener transport.Listener
	// Engine attaches the node to a shared per-process accept layer
	// instead of a dedicated listener: the engine routes inbound
	// connections to this node by Plan.Session and accounts its chunk
	// pool against the global memory budget.
	Engine *Engine
	// Packet is the node's bound datagram endpoint, required (and only
	// used) when Plan.Transport is TransportUDP. The node owns it: Run
	// closes it on exit.
	Packet transport.PacketConn
	// Sink receives the broadcast payload locally; nil discards it.
	// Only meaningful for receivers (Index > 0).
	Sink io.Writer

	// Trace observes this node's recovery-path state transitions (failure
	// detection, rewiring, gap fetches). Nil disables tracing. See trace.go.
	Trace Tracer

	// Join marks this node as a late joiner grafted into a live broadcast:
	// the grant (from Node.AdmitJoiner or the wire negotiation) carries the
	// node's assigned index, the full membership at admission, the catch-up
	// boundary, and the membership view the graft rode in on. The caller
	// must set Index = Join.Index and Plan.Peers = Join.Peers. See
	// membership.go.
	Join *JoinGrant

	// Source input (Index 0 only): either a random-access file...
	InputFile io.ReaderAt
	InputSize int64
	// ...or a stream of unknown length (the dd|gzip use case of Fig 2).
	Input io.Reader
}

// Node is one member of a running broadcast pipeline.
type Node struct {
	cfg    NodeConfig
	opts   Options
	clk    Clock
	sid    SessionID
	treeK  int // dissemination fan-out per node: 1 = chain, k = "tree:<k>"
	st     store
	ws     *windowStore // non-nil iff st is a window store
	pool   *chunkPool   // recycled payload buffers for the relay hot path
	sentry *schedEntry  // seat in the engine's data-plane scheduler (nil off-engine)

	ictx   context.Context // internal lifecycle, detached from caller ctx
	cancel context.CancelFunc

	// splice is the kernel tee relay's rendezvous gate (splice.go); nil
	// on nodes that never relay through the kernel (sender, tree relays,
	// udp plane, §V measurement).
	splice       *spliceGate
	spliceBroken atomic.Bool // an upstream error mid-frame poisons the fast path

	upConns chan *upstreamConn

	// Self-reorganization state (rerank.go); active only when
	// Options.Rerank is set on a tree topology.
	rerank   bool
	view     atomic.Pointer[treeView] // current slot-occupant assignment
	viewKick chan struct{}            // nudges the re-graft manager on view changes
	rates    linkRates                // per-downstream-link drain-rate meters
	reorg    *reorganizer             // node 0 only: the planner

	// Dynamic membership (membership.go): members, when non-nil, supersedes
	// Plan.Peers as the peer table — it is only ever extended (under mu),
	// never shrunk or reordered, so a loaded snapshot stays valid forever.
	// basePeers is the size of the start plan: indices below it are the
	// original members every pre-JOIN frame layout assumes.
	members   atomic.Pointer[[]Peer]
	basePeers int
	closing   bool       // node 0: ring is closing, no further joins
	joinSt    *joinState // late joiner only: catch-up / backlog state

	mu            sync.Mutex
	detected      []Failure
	upReport      *Report
	abandoned     bool
	abandonReason string
	tail          bool
	udpReports    int // udp transport, sender only: ring reports received

	detachOnce sync.Once
	reportOnce sync.Once
	reportC    chan struct{} // closed when upReport becomes available
	passedOnce sync.Once
	passedC    chan struct{} // closed when the report reached node 0's side
	ringOnce   sync.Once
	ringC      chan struct{} // source only: final ring report arrived
	ringReport *Report

	bytesIn atomic.Uint64
}

type upstreamConn struct {
	w    *wire
	from int
}

// errUpstreamDone signals the normal end of the upstream lifecycle.
var errUpstreamDone = errors.New("kascade: upstream lifecycle complete")

// errProtocol reports an unexpected frame.
type errProtocol struct {
	want MsgType
	got  MsgType
}

func (e *errProtocol) Error() string {
	return fmt.Sprintf("kascade: protocol error: expected %v, got %v", e.want, e.got)
}

// peerDeadError marks a confirmed successor death (stall + failed ping,
// refused dial, or exhausted patience).
type peerDeadError struct {
	reason string
	cause  error
}

func (e *peerDeadError) Error() string {
	if e.cause != nil {
		return "kascade: peer dead: " + e.reason + ": " + e.cause.Error()
	}
	return "kascade: peer dead: " + e.reason
}

func (e *peerDeadError) Unwrap() error { return e.cause }

// NewNode validates cfg and prepares a Node. Call Run to participate in
// the broadcast. The node's stores and pool are built (and, on an engine,
// the session registered) when Run starts, so inbound connections are only
// routed to a node that is actually running.
func NewNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= len(cfg.Plan.Peers) {
		return nil, fmt.Errorf("kascade: node index %d out of range", cfg.Index)
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("kascade: node %d needs a network", cfg.Index)
	}
	if (cfg.Listener == nil) == (cfg.Engine == nil) {
		return nil, fmt.Errorf("kascade: node %d needs exactly one of a bound listener or an engine", cfg.Index)
	}
	if cfg.Index == 0 {
		if cfg.InputFile == nil && cfg.Input == nil {
			return nil, fmt.Errorf("kascade: sender has no input")
		}
	} else if cfg.Input != nil || cfg.InputFile != nil {
		return nil, fmt.Errorf("kascade: only the sender (index 0) takes input")
	}
	if cfg.Plan.Transport == TransportUDP {
		if cfg.Packet == nil {
			return nil, fmt.Errorf("kascade: node %d needs a packet connection for the udp transport", cfg.Index)
		}
		if cfg.Index == 0 && cfg.InputFile == nil {
			// Loss repair is a PGET against node 0's random-access store;
			// a streamed source would turn every lost datagram into an
			// unrecoverable abandon.
			return nil, fmt.Errorf("kascade: udp transport requires a file-backed source at node 0")
		}
	}
	treeK, err := TreeArity(cfg.Plan.Topology)
	if err != nil {
		// Plan.Validate admits composite topologies (scatter-allgather)
		// because callers dispatch them outside core.Node; reaching
		// NewNode with one is a caller bug, not a plan error.
		return nil, err
	}
	if cfg.Join != nil {
		if cfg.Index != cfg.Join.Index || cfg.Index == 0 {
			return nil, fmt.Errorf("kascade: joiner index %d does not match grant index %d", cfg.Index, cfg.Join.Index)
		}
		if !cfg.Plan.Opts.Rerank || treeK <= 1 {
			return nil, ErrJoinRefused("late join requires a re-ranking tree topology")
		}
		if len(cfg.Join.Occupants) != len(cfg.Plan.Peers) {
			return nil, fmt.Errorf("kascade: joiner grant view has %d slots for %d peers", len(cfg.Join.Occupants), len(cfg.Plan.Peers))
		}
		if cfg.Join.BasePeers <= 0 || cfg.Join.BasePeers > len(cfg.Plan.Peers) {
			return nil, fmt.Errorf("kascade: joiner grant base plan size %d out of range", cfg.Join.BasePeers)
		}
	}
	opts := cfg.Plan.Opts.withDefaults()
	n := &Node{
		cfg:       cfg,
		opts:      opts,
		clk:       opts.Clock,
		sid:       cfg.Plan.Session,
		treeK:     treeK,
		basePeers: len(cfg.Plan.Peers),
		upConns:   make(chan *upstreamConn, 4),
		reportC:   make(chan struct{}),
		passedC:   make(chan struct{}),
		ringC:     make(chan struct{}),
	}
	if spliceEligible(&cfg, &opts) {
		n.splice = &spliceGate{}
	}
	if opts.Rerank && treeK > 1 {
		n.rerank = true
		n.viewKick = make(chan struct{}, 1)
		n.view.Store(identityView(len(cfg.Plan.Peers)))
		if cfg.Index == 0 {
			n.reorg = newReorganizer(n)
		}
	}
	if g := cfg.Join; g != nil {
		// The joiner starts from the granted membership view, not the
		// identity permutation: prior re-rankings are baked into the
		// occupant table the graft rode in on.
		n.basePeers = g.BasePeers
		occ := append([]int32(nil), g.Occupants...)
		n.view.Store(viewFromOccupants(g.Version, occ))
		n.joinSt = newJoinState(cfg.Sink, g.Head, int64(opts.PoolReservation()), opts.ChunkSize)
	}
	if cfg.Index == 0 {
		// The sender originates the report chain: its own report is
		// available from the start (failures are merged at send time).
		n.upReport = &Report{}
		n.reportOnce.Do(func() { close(n.reportC) })
	}
	return n, nil
}

// prepare builds the node's chunk pool and store and, on an engine,
// registers and then attaches the session. The attach comes strictly
// last: the engine must never route a connection (or report a listener
// death) into a node whose pool or store is still nil.
func (n *Node) prepare() error {
	if n.cfg.Engine != nil {
		pool, err := n.cfg.Engine.register(n.sid, n, n.opts.ChunkSize, n.opts.PoolChunks, n.opts.Class)
		if err != nil {
			return err
		}
		n.pool = pool
	} else {
		n.pool = newChunkPool(n.opts.ChunkSize, n.opts.PoolChunks)
	}
	if n.cfg.Index == 0 && n.cfg.InputFile != nil {
		n.st = newFileStore(n.cfg.InputFile, n.cfg.InputSize, n.opts.ChunkSize, n.pool)
	} else {
		n.ws = newWindowStore(n.opts.ChunkSize, n.opts.WindowChunks, n.pool)
		n.st = n.ws
		if n.splice != nil {
			n.ws.onBackPressure = n.splice.resolveTransient
		}
		if g := n.cfg.Join; g != nil {
			// A late joiner's live window starts at the catch-up boundary:
			// everything before it is backfilled from node 0 instead of
			// flowing through the replay window.
			n.ws.rebase(g.Head)
		}
	}
	if n.cfg.Engine != nil {
		if n.treeK == 1 {
			// Engine-attached nodes forward through the engine's weighted
			// scheduler (sched.go) instead of a free-running goroutine per
			// session: the seat is taken before attach so the first inbound
			// GET finds the scheduling path ready. Tree relays serve several
			// child cursors from one window, which the one-cursor-per-seat
			// scheduler cannot model, so they keep the direct blocking path.
			n.sentry = n.cfg.Engine.attachSched(n.sid, n.st, n.opts.Class, n.opts.MaxBatchBytes, n.opts.ChunkSize)
		}
		n.cfg.Engine.attach(n.sid, n)
	}
	return nil
}

// detach stops the node from receiving new connections: the engine
// unregisters the session (so inbound pings for it go unanswered and the
// pipeline routes around this node), or the owned listener closes.
func (n *Node) detach() {
	n.detachOnce.Do(func() {
		if n.cfg.Engine != nil {
			n.cfg.Engine.unregister(n.sid, n)
			n.cfg.Engine.detachSched(n.sentry)
		} else {
			_ = n.cfg.Listener.Close()
		}
	})
}

// BytesReceived reports how many payload bytes this node has ingested.
func (n *Node) BytesReceived() uint64 { return n.bytesIn.Load() }

// Transport counter hooks: engine-attached nodes feed the per-process
// EngineStats; standalone nodes drop the samples (there is no aggregate to
// report them in).

func (n *Node) countSpliced(bytes uint64) {
	if e := n.cfg.Engine; e != nil {
		e.splicedBytes.Add(bytes)
		e.splicedChunks.Add(1)
	}
}

func (n *Node) countUDPBatchSent() {
	if e := n.cfg.Engine; e != nil {
		e.udpBatchesSent.Add(1)
	}
}

func (n *Node) countUDPBatchRecv() {
	if e := n.cfg.Engine; e != nil {
		e.udpBatchesRecv.Add(1)
	}
}

func (n *Node) countRepairFetch() {
	if e := n.cfg.Engine; e != nil {
		e.repairFetches.Add(1)
	}
}

// Abandoned reports whether this node gave up after unrecoverable loss.
func (n *Node) Abandoned() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.abandoned
}

// AbandonReason describes why the node abandoned (empty if it did not).
func (n *Node) AbandonReason() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.abandonReason
}

func (n *Node) me() Peer { return n.cfg.Plan.Peers[n.cfg.Index] }

// peers returns the current membership: the start plan until a late joiner
// is admitted, then the extended member table. The returned slice is an
// immutable snapshot — extension replaces the pointer, never mutates.
func (n *Node) peers() []Peer {
	if m := n.members.Load(); m != nil {
		return *m
	}
	return n.cfg.Plan.Peers
}

// addMembers extends the membership table with peers learned from a grant
// or a REORG2 frame. Entries must be indexed contiguously from the current
// size; stale entries (already known) are ignored, gapped ones rejected.
func (n *Node) addMembers(ms []wireMember) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addMembersLocked(ms)
}

func (n *Node) addMembersLocked(ms []wireMember) error {
	cur := n.peers()
	grown := false
	ext := cur
	for _, m := range ms {
		switch {
		case m.Index < len(ext):
			continue // already known
		case m.Index == len(ext):
			if !grown {
				ext = append(make([]Peer, 0, len(cur)+len(ms)), cur...)
				grown = true
			}
			ext = append(ext, Peer{Name: m.Name, Addr: m.Addr})
		default:
			return fmt.Errorf("kascade: member table gap: entry %d with %d members known", m.Index, len(ext))
		}
	}
	if grown {
		n.members.Store(&ext)
	}
	return nil
}

// newWire wraps a connection with this node's clock as deadline source.
func (n *Node) newWire(c transport.Conn) *wire {
	return newWire(c, n.clk)
}

// Run participates in the broadcast until completion. It returns the final
// report: at the sender this is the ring report aggregating every detected
// failure; at receivers it is the node's merged view. The caller context
// aborts the transfer gracefully (QUIT), giving the pipeline ReportTimeout
// to close its ring before hard shutdown.
func (n *Node) Run(ctx context.Context) (*Report, error) {
	rep, err := n.run(ctx)
	if err != nil && n.joinSt != nil {
		// A failed catch-up surfaces as a generic abandon through the
		// store; prefer the typed membership error recorded at the source.
		if jerr := n.joinSt.failure(); jerr != nil {
			err = jerr
		}
	}
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	n.emit(TraceFinished, -1, n.bytesIn.Load(), detail)
	n.recycle()
	return rep, err
}

// recycle hands the node's payload buffers back to the cross-session
// arena: first the ring slots the replay window still holds, then the
// pool's parked free list. Runs strictly after detach — no new connection
// can be routed here — and the store poisons itself so an in-flight PGET
// server errors out instead of touching recycled memory.
func (n *Node) recycle() {
	if n.ws != nil {
		n.ws.recycle()
	}
	n.pool.drain()
}

func (n *Node) run(ctx context.Context) (*Report, error) {
	ictx, cancel := context.WithCancel(context.Background())
	n.ictx, n.cancel = ictx, cancel
	defer cancel()

	if n.cfg.Packet != nil {
		defer n.cfg.Packet.Close()
	}
	if err := n.prepare(); err != nil {
		return nil, err
	}
	defer n.detach()

	// Bridge the caller's context. At the sender, cancellation turns into
	// a graceful QUIT that propagates in-band down the pipeline; receivers
	// do NOT abort locally (the QUIT frame reaches them through the
	// protocol, keeping every sink a consistent prefix). Either way the
	// node escalates to hard shutdown after ReportTimeout.
	bridgeDone := make(chan struct{})
	defer close(bridgeDone)
	go func() {
		select {
		case <-ctx.Done():
			if n.cfg.Index == 0 {
				n.st.Abort(ErrQuit)
			}
			select {
			case <-n.clk.After(n.opts.ReportTimeout):
				cancel()
			case <-bridgeDone:
			}
		case <-bridgeDone:
		}
	}()

	if n.cfg.Listener != nil {
		go n.acceptLoop()
	}

	if n.cfg.Plan.Transport == TransportUDP {
		return n.runUDP(ictx)
	}

	if n.rerank && n.cfg.Index > 0 {
		go n.runRateSpoke(ictx)
	}

	if n.joinSt != nil {
		go n.runCatchUp(ictx)
	}

	upErrC := make(chan error, 1)
	if n.cfg.Index > 0 {
		go func() {
			err := n.upstreamLoop(ictx)
			upErrC <- err
			if err != nil {
				n.shutdown(err)
			}
		}()
	} else if n.cfg.Input != nil {
		go n.readInput()
	}

	mgrErr := n.runManager(ictx)
	if mgrErr != nil {
		n.shutdown(mgrErr)
		if n.cfg.Index > 0 {
			<-upErrC
		}
		return n.snapshotReport(), mgrErr
	}

	if n.cfg.Index > 0 {
		// The manager finished its lifecycle; the upstream loop still
		// owes PASSED to the predecessor.
		select {
		case err := <-upErrC:
			if err != nil {
				return n.snapshotReport(), err
			}
		case <-n.clk.After(n.opts.ReportTimeout):
			n.shutdown(fmt.Errorf("kascade: timed out relaying PASSED upstream"))
			<-upErrC
			return n.snapshotReport(), fmt.Errorf("kascade: timed out relaying PASSED upstream")
		}
		return n.snapshotReport(), nil
	}

	// Sender: the ring report must have arrived (PASSED only propagates
	// after the last node delivered it), unless the sender was its own
	// tail because every receiver died.
	select {
	case <-n.ringC:
	default:
		if n.isTail() {
			rep, _ := n.mergedReport()
			n.setRingReport(rep)
		}
	}
	select {
	case <-n.ringC:
		n.mu.Lock()
		rep := n.ringReport.Clone()
		n.mu.Unlock()
		return rep, nil
	case <-n.clk.After(n.opts.ReportTimeout):
		return n.snapshotReport(), fmt.Errorf("kascade: final report never arrived")
	}
}

// runUDP is the datagram-plane lifecycle (udp.go): the sender fans out and
// then waits for the ring to close over the stream transport; receivers
// reassemble, repair, and deliver their own ring report.
func (n *Node) runUDP(ictx context.Context) (*Report, error) {
	if n.cfg.Index > 0 {
		if err := n.udpReceiver(ictx); err != nil {
			n.shutdown(err)
			return n.snapshotReport(), err
		}
		return n.snapshotReport(), nil
	}
	if err := n.udpSender(ictx); err != nil {
		n.shutdown(err)
		return n.snapshotReport(), err
	}
	// Every receiver either reported already (dispatch counts them) or was
	// recorded dead by the send loop: re-check so an all-dead (or
	// zero-receiver) fan-out still closes the ring from the sender's view.
	n.maybeCloseUDPRing()
	select {
	case <-n.ringC:
		n.mu.Lock()
		rep := n.ringReport.Clone()
		n.mu.Unlock()
		return rep, nil
	case <-n.clk.After(n.opts.ReportTimeout):
		return n.snapshotReport(), fmt.Errorf("kascade: final report never arrived")
	}
}

// maybeCloseUDPRing publishes the sender's final report once every receiver
// is accounted for — a ring report received over the stream transport, or a
// recorded death. Idempotent; called from the report accept path and after
// the fan-out completes.
func (n *Node) maybeCloseUDPRing() {
	n.mu.Lock()
	accounted := n.udpReports + len(n.detected)
	n.mu.Unlock()
	if accounted >= len(n.peers())-1 {
		rep, _ := n.mergedReport()
		n.setRingReport(rep)
		n.markPassed()
	}
}

// shutdown aborts the node's store and internal context.
func (n *Node) shutdown(cause error) {
	if cause == nil {
		cause = errors.New("kascade: node shutdown")
	}
	n.st.Abort(cause)
	n.cancel()
}

// listenerFailed is the engine's notification that the shared accept path
// died underneath this session: fatal if the node is still mid-transfer,
// exactly like an owned listener failing.
func (n *Node) listenerFailed(err error) {
	select {
	case <-n.ictx.Done():
	default:
		if !n.Abandoned() {
			n.shutdown(fmt.Errorf("kascade: listener failed: %w", err))
		}
	}
}

// snapshotReport returns this node's current merged view.
func (n *Node) snapshotReport() *Report {
	rep := &Report{}
	n.mu.Lock()
	if n.upReport != nil {
		rep = n.upReport.Clone()
	}
	det := append([]Failure(nil), n.detected...)
	n.mu.Unlock()
	rep.Merge(&Report{Failures: det})
	if end, ok := n.st.End(); ok && end > rep.TotalBytes {
		rep.TotalBytes = end
	} else if h := n.st.Head(); h > rep.TotalBytes {
		rep.TotalBytes = h
	}
	if n.st.AbortCause() == ErrQuit {
		rep.Aborted = true
	}
	return rep
}

func (n *Node) setRingReport(rep *Report) {
	n.ringOnce.Do(func() {
		n.mu.Lock()
		n.ringReport = rep
		n.mu.Unlock()
		close(n.ringC)
	})
}

func (n *Node) setUpReport(rep *Report) {
	n.mu.Lock()
	if n.upReport == nil {
		n.upReport = rep.Clone()
	} else {
		n.upReport.Merge(rep)
	}
	n.mu.Unlock()
	n.reportOnce.Do(func() { close(n.reportC) })
}

func (n *Node) markPassed() {
	n.passedOnce.Do(func() { close(n.passedC) })
}

func (n *Node) recordFailure(idx int, reason string, off uint64) {
	if idx <= 0 || idx >= len(n.peers()) {
		return
	}
	n.mu.Lock()
	for _, f := range n.detected {
		if f.Index == idx {
			n.mu.Unlock()
			return
		}
	}
	n.detected = append(n.detected, Failure{
		Index:      idx,
		Name:       n.peers()[idx].Name,
		Reason:     reason,
		Offset:     off,
		DetectedBy: n.me().Name,
	})
	n.mu.Unlock()
	n.emit(TraceFailureDetected, idx, off, reason)
}

func (n *Node) isFailedPeer(idx int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, f := range n.detected {
		if f.Index == idx {
			return true
		}
	}
	return false
}

func (n *Node) isTail() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tail
}

// mergedReport snapshots the report to forward: upstream's view plus this
// node's own detections.
func (n *Node) mergedReport() (*Report, error) {
	n.mu.Lock()
	rep := n.upReport.Clone()
	det := append([]Failure(nil), n.detected...)
	n.mu.Unlock()
	rep.Merge(&Report{Failures: det})
	if end, ok := n.st.End(); ok && end > rep.TotalBytes {
		rep.TotalBytes = end
	} else if h := n.st.Head(); h > rep.TotalBytes {
		rep.TotalBytes = h
	}
	if n.st.AbortCause() == ErrQuit {
		rep.Aborted = true
	}
	return rep, nil
}

// awaitReport blocks until a report is available to forward.
func (n *Node) awaitReport(ctx context.Context) (*Report, error) {
	select {
	case <-n.reportC:
		return n.mergedReport()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
