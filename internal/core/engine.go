package core

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kascade/internal/transport"
)

// Engine is the per-process accept layer of a long-lived broadcast agent:
// one shared data listener whose connections are routed to the broadcast
// session named in their opening HELLO, a registry of the sessions in
// flight, an admission policy deciding which new sessions may run (see
// admission.go), and a global memory budget that the per-session chunk
// pools are accounted against.
//
// The single-broadcast tools (the CLI sender, the protocol tests) keep
// giving each Node its own listener; an agent that must carry many
// overlapping broadcasts on one advertised port instead creates one Engine
// and attaches every session's Node to it (NodeConfig.Engine). Connections
// for sessions that have not registered yet — the prepare/start race, a
// predecessor dialing a successor whose start message is still in flight —
// are parked briefly instead of refused, preserving the listener-backlog
// semantics of the one-listener-per-node design. A parked connection is
// watched for remote close, so a dialer that gives up frees its park slot
// immediately instead of pinning it until ParkTimeout.
type Engine struct {
	opts  EngineOptions
	clk   Clock
	lst   transport.Listener
	sched *scheduler // the weighted data-plane scheduler (sched.go)

	mu       sync.Mutex
	sessions map[SessionID]connHandler // attached (routable) sessions
	reserved map[SessionID]*grant      // budget accounting, admission to unregister
	used     int64                     // sum of reserved bytes
	admitQ   []*admitWaiter            // queued admissions: FIFO per class, weighted RR across classes
	admitRR  map[string]int            // smooth-WRR credit per class for the admit pump
	admitHol *admitWaiter              // blocked head-of-line: freed budget accumulates for it
	parked   map[SessionID][]*parkedConn
	parkedIP map[string]int // parked connections per remote IP
	nParked  int
	closed   bool

	// Monotonic admission / park counters (EngineStats).
	admittedTotal uint64
	queuedTotal   uint64
	refusedTotal  uint64
	queueTimeouts uint64
	parkExpired   uint64
	parkReaped    uint64
	parkSessOver  uint64 // refused at the per-session park cap
	parkIPOver    uint64 // refused at the per-IP park cap
	classAdmit    map[string]*classCounter

	// Transport data-plane counters, bumped from per-connection hot paths
	// by the engine's attached nodes — atomics, not e.mu, so a relay moving
	// gigabytes never contends with the control plane.
	splicedBytes   atomic.Uint64
	splicedChunks  atomic.Uint64
	udpBatchesSent atomic.Uint64
	udpBatchesRecv atomic.Uint64
	repairFetches  atomic.Uint64
}

// classCounter accumulates per-class admission outcomes.
type classCounter struct {
	admitted uint64
	queued   uint64
	refused  uint64
}

// grant is one session's claim on the pool budget. It exists from admission
// (or register, for sessions that skip explicit admission) until
// unregister, so a node mid-prepare cannot lose its session ID to a racing
// duplicate. owner is nil while the grant is admitted but not yet adopted
// by a running node; ticket then records which admission created it, so a
// stale Cancel from an earlier ticket for the same (since recycled)
// session ID cannot revoke a newer admission's grant.
type grant struct {
	owner  connHandler
	bytes  int64
	ticket *Ticket
	class  string // priority class fixed at admission (or first register)
}

// EngineOptions tunes the shared accept layer. The zero value selects
// production defaults.
type EngineOptions struct {
	// Clock is the engine's time source (HELLO deadlines, park expiry,
	// admission queue deadlines), the same seam Options.Clock gives the
	// per-session nodes, so deterministic harnesses can fake engine time
	// too. Nil selects the system clock.
	Clock Clock
	// MemBudget bounds the total bytes of pooled payload buffers reserved
	// across all sessions. A session whose reservation does not fit is no
	// longer silently granted a floor-sized pool: Admit queues or refuses
	// it, and a direct register without prior admission is refused with a
	// typed *AdmissionError. Defaults to 256 MiB. Every session reserves
	// ChunkSize × PoolChunks whatever its role (72 MiB at the 1 MiB /
	// 64-chunk defaults), so an agent carries 3 default sessions; a leaf
	// reserves as much as a relay but touches only a few of its buffers.
	MemBudget int64
	// MaxSessions caps the number of concurrently admitted sessions
	// (registered plus admitted-but-not-yet-started). 0 means no cap
	// beyond the memory budget.
	MaxSessions int
	// AdmitQueueTimeout is how long a session that does not fit right now
	// may wait in the admission queue for budget to free. Defaults to 30 s.
	AdmitQueueTimeout time.Duration
	// MaxAdmitQueue caps the admission queue length; admissions beyond it
	// are refused outright. Defaults to 64.
	MaxAdmitQueue int
	// HelloTimeout bounds reading the opening HELLO frame of an accepted
	// connection. Defaults to 10 s.
	HelloTimeout time.Duration
	// ParkTimeout is how long a connection for a not-yet-registered
	// session waits before being dropped. Defaults to 10 s.
	ParkTimeout time.Duration
	// MaxParked caps the connections parked across all sessions.
	// Defaults to 64.
	MaxParked int
	// MaxParkedPerSession caps how many of the parked connections may
	// wait for the same (unregistered) session ID, so a flood of dials
	// naming one bogus session cannot consume the whole shared park.
	// Defaults to 8.
	MaxParkedPerSession int
	// MaxParkedPerIP caps the parked connections per remote IP, bounding
	// what one untrusted dialer can pin regardless of how many session
	// IDs it invents. Defaults to 16.
	MaxParkedPerIP int

	// Workers sizes the data-plane scheduler's worker pool: the
	// goroutines pulling ready-session work items (forwardable chunk
	// batches) off the weighted round-robin run queue. Defaults to
	// GOMAXPROCS.
	Workers int
	// Quantum is the per-turn byte budget CEILING of a weight-1 session; a
	// class of weight w may claim up to w×Quantum bytes per scheduled turn
	// (capped by the session's MaxBatchBytes — one turn is one vectored
	// write). Sessions with a measured drain rate get adaptively smaller
	// turns: see QuantumLatency. Defaults to 2 MiB.
	Quantum int
	// QuantumLatency is the target per-turn drain latency for adaptive
	// quanta: a session's effective turn is what its measured downstream
	// drain rate moves in this long (floored at one chunk, ceilinged by
	// Quantum×weight), so a slow-WAN successor takes many small
	// low-latency turns instead of monopolising a full quantum it cannot
	// drain. Sessions without a rate measurement yet use the full
	// ceiling. Defaults to 30 ms; negative disables adaptation.
	QuantumLatency time.Duration
	// Classes maps priority-class names to scheduling weights. The same
	// weights order the admission-queue pump (weighted round-robin
	// across classes, FIFO within one) and size the run-queue quanta.
	// Nil selects DefaultClasses. The empty class weighs 1, and names
	// outside the table are folded into it — class strings arrive from
	// untrusted control clients and must not grow per-class state.
	Classes map[string]int
}

// Priority-class names understood out of the box (any other name is legal
// too, at weight 1 unless EngineOptions.Classes says otherwise).
const (
	// ClassBulk is the steady background-transfer class (weight 1).
	ClassBulk = "bulk"
	// ClassInteractive is the latency-sensitive class: weight 4, so its
	// sessions get 4× bulk's admission share and up to 4× its per-turn
	// byte budget — the budget is still capped by the session's
	// MaxBatchBytes, since one turn is one vectored write (with the
	// defaults, 4 MiB against bulk's 2 MiB).
	ClassInteractive = "interactive"
)

// DefaultClasses is the default priority-class weight table.
func DefaultClasses() map[string]int {
	return map[string]int{ClassBulk: 1, ClassInteractive: 4}
}

func (o EngineOptions) withDefaults() EngineOptions {
	if o.MemBudget <= 0 {
		o.MemBudget = 256 << 20
	}
	if o.AdmitQueueTimeout <= 0 {
		o.AdmitQueueTimeout = 30 * time.Second
	}
	if o.MaxAdmitQueue <= 0 {
		o.MaxAdmitQueue = 64
	}
	if o.HelloTimeout <= 0 {
		o.HelloTimeout = 10 * time.Second
	}
	if o.ParkTimeout <= 0 {
		o.ParkTimeout = 10 * time.Second
	}
	if o.MaxParked <= 0 {
		o.MaxParked = 64
	}
	if o.MaxParkedPerSession <= 0 {
		o.MaxParkedPerSession = 8
	}
	if o.MaxParkedPerIP <= 0 {
		o.MaxParkedPerIP = 16
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Quantum <= 0 {
		o.Quantum = 2 << 20
	}
	if o.QuantumLatency == 0 {
		o.QuantumLatency = 30 * time.Millisecond
	}
	if o.Classes == nil {
		o.Classes = DefaultClasses()
	}
	if o.Clock == nil {
		o.Clock = SystemClock()
	}
	return o
}

// connHandler is the narrow interface the engine needs from a registered
// session: take over one accepted connection whose HELLO is already
// parsed, and learn that the shared listener died.
type connHandler interface {
	// handleWire adopts one inbound connection. role and from come from
	// the HELLO frame; the handler owns w from here on.
	handleWire(w *wire, role Role, from int)
	// listenerFailed reports that the shared accept path is gone: no
	// further connections will ever arrive for this session.
	listenerFailed(err error)
}

// parkedConn is a routed connection waiting for its session to attach.
// Exactly one resolution is ever sent: attach hands it to the session,
// expiry/reaping/engine-close drop it (nil handler). The park watcher
// goroutine (watchParked) is the only code touching the connection while
// parked, which keeps the remote-close Peek and the session's own reads
// from ever running concurrently.
type parkedConn struct {
	w       *wire
	role    Role
	from    int
	ip      string              // remote IP, for the per-IP park cap accounting
	resolve chan parkResolution // buffered 1; sent by whoever unparks it
}

// parkResolution is the single outcome of a parked connection: adopt into
// handler h, or (nil h) close and drop.
type parkResolution struct {
	h connHandler
}

// NewEngine binds addr on network and starts the shared accept loop.
func NewEngine(network transport.Network, addr string, opts EngineOptions) (*Engine, error) {
	if network == nil {
		return nil, fmt.Errorf("kascade: engine needs a network")
	}
	l, err := network.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("kascade: engine binding %s: %w", addr, err)
	}
	o := opts.withDefaults()
	e := &Engine{
		opts:       o,
		clk:        o.Clock,
		lst:        l,
		sched:      newScheduler(o.Workers, o.Quantum, o.QuantumLatency, o.Classes, o.Clock),
		sessions:   make(map[SessionID]connHandler),
		reserved:   make(map[SessionID]*grant),
		admitRR:    make(map[string]int),
		parked:     make(map[SessionID][]*parkedConn),
		parkedIP:   make(map[string]int),
		classAdmit: make(map[string]*classCounter),
	}
	go e.acceptLoop()
	return e, nil
}

// Addr reports the shared data listener's bound address.
func (e *Engine) Addr() string { return e.lst.Addr() }

// Close shuts the shared listener down, refuses every queued admission and
// notifies every registered session that no further connections can arrive.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	handlers := e.allHandlersLocked()
	e.dropParkedLocked()
	resolved := e.pumpAdmitQueueLocked() // closed: refuses every waiter
	e.mu.Unlock()

	closeTickets(resolved)
	e.sched.close()
	err := e.lst.Close()
	for _, h := range handlers {
		h.listenerFailed(transport.ErrClosed)
	}
	return err
}

// allHandlersLocked snapshots every attached session for listener-death
// notification. Sessions still mid-prepare (reserved but not attached)
// are deliberately excluded: their node's store may not exist yet, and
// they learn the engine is gone from their own attach call, which checks
// e.closed after the store is built. Caller holds e.mu.
func (e *Engine) allHandlersLocked() []connHandler {
	handlers := make([]connHandler, 0, len(e.sessions))
	for _, h := range e.sessions {
		handlers = append(handlers, h)
	}
	return handlers
}

// EngineStats is a snapshot of the registry, the pooled-memory accounting
// and the admission/park counters, for tests and operational introspection.
type EngineStats struct {
	// Sessions is the number of registered broadcasts.
	Sessions int `json:"sessions"`
	// PoolBudget and PoolReserved are the configured global budget and
	// the bytes currently accounted to sessions (including admitted
	// sessions that have not registered yet).
	PoolBudget   int64 `json:"pool_budget"`
	PoolReserved int64 `json:"pool_reserved"`
	// PerSession maps each admitted or registered session to its reserved
	// bytes.
	PerSession map[SessionID]int64 `json:"per_session,omitempty"`
	// Parked is the number of connections waiting for their session.
	Parked int `json:"parked"`

	// AdmitQueue is the current admission queue depth: sessions parked
	// until budget frees.
	AdmitQueue int `json:"admit_queue"`
	// Admitted/Queued/Refused count admission outcomes since the engine
	// started (a queued session that is later accepted counts in both
	// Queued and Admitted; one that times out counts in Queued, Refused
	// and QueueTimeouts).
	Admitted      uint64 `json:"admitted"`
	Queued        uint64 `json:"queued"`
	Refused       uint64 `json:"refused"`
	QueueTimeouts uint64 `json:"queue_timeouts"`

	// ParkExpired counts parked connections dropped at ParkTimeout;
	// ParkReaped counts those reclaimed early because the remote end
	// closed while parked.
	ParkExpired uint64 `json:"park_expired"`
	ParkReaped  uint64 `json:"park_reaped"`
	// ParkSessionOverflow / ParkIPOverflow count connections refused at
	// the per-session and per-remote-IP park caps (the global MaxParked
	// refusals are not counted separately).
	ParkSessionOverflow uint64 `json:"park_session_overflow"`
	ParkIPOverflow      uint64 `json:"park_ip_overflow"`

	// SplicedBytes / SplicedChunks count payload this engine's chain
	// relays forwarded through the kernel tee relay (splice + tee).
	SplicedBytes  uint64 `json:"spliced_bytes"`
	SplicedChunks uint64 `json:"spliced_chunks"`
	// UDPBatchesSent / UDPBatchesRecv count datagram batches crossing the
	// kernel boundary on the UDP fan-out transport (one sendmmsg/recvmmsg
	// crossing each, or one datagram on the portable fallback).
	UDPBatchesSent uint64 `json:"udp_batches_sent"`
	UDPBatchesRecv uint64 `json:"udp_batches_recv"`
	// RepairFetches counts PGET range fetches against node 0: §III-D2 gap
	// fetches on the TCP pipeline plus loss repair on the UDP transport.
	RepairFetches uint64 `json:"repair_fetches"`

	// Classes breaks admissions and scheduling down by priority class.
	Classes map[string]ClassStats `json:"classes,omitempty"`

	// SessionLinks maps each registered session with link measurements to
	// its downstream rate and re-ranking snapshot: what the rate meters
	// see, and what the reorganizer did about it.
	SessionLinks map[SessionID]SessionLinkStats `json:"session_links,omitempty"`
}

// SessionLinkStats is one session's link-rate and reorg observability
// surface (the rerank planner's evidence, exported).
type SessionLinkStats struct {
	// Links is the number of downstream links with a folded rate estimate.
	Links int `json:"links"`
	// MinRate and MeanRate summarise the measured link rates in bytes/s.
	MinRate  float64 `json:"min_rate,omitempty"`
	MeanRate float64 `json:"mean_rate,omitempty"`
	// Depth is this node's current distance from the root (under the live
	// view when re-ranking, the static tree otherwise).
	Depth int `json:"depth"`
	// ReorgVersion is the current view generation (0 when rerank is off).
	ReorgVersion uint64 `json:"reorg_version,omitempty"`
	// Migrations / Suppressed count re-ranking swaps executed and
	// candidates blocked by hysteresis pacing (meaningful at node 0).
	Migrations uint64 `json:"migrations,omitempty"`
	Suppressed uint64 `json:"suppressed,omitempty"`
}

// linkStatsProvider is the optional interface a registered session
// implements to surface SessionLinkStats; Stats type-asserts it so the
// connHandler seam stays narrow.
type linkStatsProvider interface {
	linkStats() (SessionLinkStats, bool)
}

// ClassStats is one priority class's slice of the engine counters.
type ClassStats struct {
	// Weight is the class's configured scheduling weight.
	Weight int `json:"weight"`
	// Sessions counts currently admitted or registered sessions.
	Sessions int `json:"sessions"`
	// Admitted/Queued/Refused count admission outcomes for this class.
	Admitted uint64 `json:"admitted"`
	Queued   uint64 `json:"queued"`
	Refused  uint64 `json:"refused"`
	// Turns and ScheduledBytes count the data-plane scheduler's granted
	// turns and the payload bytes claimed through them.
	Turns          uint64 `json:"turns"`
	ScheduledBytes uint64 `json:"scheduled_bytes"`
}

// Stats snapshots the engine's accounting.
func (e *Engine) Stats() EngineStats {
	sched := e.sched.classStats()
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineStats{
		SplicedBytes:        e.splicedBytes.Load(),
		SplicedChunks:       e.splicedChunks.Load(),
		UDPBatchesSent:      e.udpBatchesSent.Load(),
		UDPBatchesRecv:      e.udpBatchesRecv.Load(),
		RepairFetches:       e.repairFetches.Load(),
		Sessions:            len(e.sessions),
		PoolBudget:          e.opts.MemBudget,
		PoolReserved:        e.used,
		PerSession:          make(map[SessionID]int64, len(e.reserved)),
		Parked:              e.nParked,
		AdmitQueue:          len(e.admitQ),
		Admitted:            e.admittedTotal,
		Queued:              e.queuedTotal,
		Refused:             e.refusedTotal,
		QueueTimeouts:       e.queueTimeouts,
		ParkExpired:         e.parkExpired,
		ParkReaped:          e.parkReaped,
		ParkSessionOverflow: e.parkSessOver,
		ParkIPOverflow:      e.parkIPOver,
		Classes:             make(map[string]ClassStats),
	}
	for sid, r := range e.reserved {
		st.PerSession[sid] = r.bytes
	}
	classRow := func(class string) ClassStats {
		row, ok := st.Classes[class]
		if !ok {
			row.Weight = e.sched.weightFor(class)
		}
		return row
	}
	for _, r := range e.reserved {
		row := classRow(r.class)
		row.Sessions++
		st.Classes[r.class] = row
	}
	for class, c := range e.classAdmit {
		row := classRow(class)
		row.Admitted, row.Queued, row.Refused = c.admitted, c.queued, c.refused
		st.Classes[class] = row
	}
	for class, cs := range sched {
		row := classRow(class)
		row.Turns, row.ScheduledBytes = cs.turns, cs.bytes
		st.Classes[class] = row
	}
	for sid, h := range e.sessions {
		if p, ok := h.(linkStatsProvider); ok {
			if ls, ok := p.linkStats(); ok {
				if st.SessionLinks == nil {
					st.SessionLinks = make(map[SessionID]SessionLinkStats)
				}
				st.SessionLinks[sid] = ls
			}
		}
	}
	return st
}

// register claims a session ID and its chunk-pool grant. A session that
// went through Admit adopts its admitted reservation; one that registers
// directly (in-process sessions, v1 dialers on the default session) gets
// an implicit immediate admission — accepted if the reservation fits,
// refused with a typed *AdmissionError otherwise. register never queues:
// a node inside Run must not block on other sessions, so callers that
// want queue-with-deadline semantics call Admit first and register only
// after the ticket resolves.
//
// The session is NOT routable yet: the caller finishes building its stores
// first and then calls attach, so a connection can never be routed into a
// half-constructed node. The returned pool stays valid until unregister
// releases the grant.
func (e *Engine) register(sid SessionID, h connHandler, chunkSize, poolChunks int, class string) (*chunkPool, error) {
	class = e.canonicalClass(class)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("kascade: engine is closed")
	}
	if r, ok := e.reserved[sid]; ok {
		if r.owner == nil {
			// Adopt the admitted reservation (and its class: the class
			// named at PREPARE admission is authoritative).
			r.owner = h
			capacity := int(r.bytes / int64(chunkSize))
			if capacity < 1 {
				capacity = 1
			}
			return newChunkPool(chunkSize, capacity), nil
		}
		if sid == 0 {
			// Two concurrent v1 (pre-session-ID) broadcasts: the shared
			// data port can only carry one default session at a time.
			return nil, fmt.Errorf("kascade: a pre-session-ID broadcast is already in flight on this engine (v1 senders are limited to one at a time)")
		}
		return nil, fmt.Errorf("kascade: session %d already registered on this engine", sid)
	}

	// Implicit admission: accept immediately or refuse — never the silent
	// floor-sized pool of old (admission made that fallback obsolete), and
	// never ahead of sessions already queued (their freed-budget claim is
	// strictly FIFO; a register may not take the bytes the queue head is
	// waiting for). The pool parks exactly the debited capacity: budget
	// accounting and parkable bytes can never diverge.
	capacity := poolChunks
	if capacity < 1 {
		capacity = 1
	}
	want := int64(chunkSize) * int64(capacity)
	if len(e.admitQ) > 0 || !e.fitsLocked(want) {
		e.refusedTotal++
		reason := fmt.Sprintf("pool reservation of %d B does not fit (%d of %d B budget in use across %d sessions)",
			want, e.used, e.opts.MemBudget, len(e.reserved))
		switch {
		case len(e.admitQ) > 0:
			reason = fmt.Sprintf("%d session(s) queued ahead (admission is FIFO; use Admit to wait)", len(e.admitQ))
		case e.opts.MaxSessions > 0 && len(e.reserved) >= e.opts.MaxSessions:
			reason = fmt.Sprintf("engine at its session cap (%d)", e.opts.MaxSessions)
		}
		return nil, &AdmissionError{Session: sid, Reason: reason}
	}
	e.reserved[sid] = &grant{owner: h, bytes: want, class: class}
	e.used += want
	e.admittedTotal++
	e.classCounterLocked(class).admitted++
	return newChunkPool(chunkSize, capacity), nil
}

// classCounterLocked returns (allocating on demand) the admission counter
// bucket of one class. Caller holds e.mu.
func (e *Engine) classCounterLocked(class string) *classCounter {
	c := e.classAdmit[class]
	if c == nil {
		c = &classCounter{}
		e.classAdmit[class] = c
	}
	return c
}

// canonicalClass folds class names outside the configured table into the
// default class. Class strings arrive from untrusted control clients
// (PREPARE payloads); without the fold, a dialer inventing a fresh name
// per request would grow the per-class counter and round-robin maps — and
// every Stats() snapshot — without bound.
func (e *Engine) canonicalClass(class string) string {
	if _, ok := e.opts.Classes[class]; ok {
		return class
	}
	return ""
}

// attachSched seats a registering session in the data-plane scheduler:
// batches for st are claimed under the session's admitted class (falling
// back to the class the node carries in its options for direct registers).
// The caller owns the returned entry and must sched-detach it when the
// session ends.
func (e *Engine) attachSched(sid SessionID, st store, fallbackClass string, maxBatch, chunkSize int) *schedEntry {
	class := e.canonicalClass(fallbackClass)
	e.mu.Lock()
	if r, ok := e.reserved[sid]; ok && r.class != "" {
		class = r.class
	}
	e.mu.Unlock()
	return e.sched.register(st, class, maxBatch, chunkSize)
}

// detachSched retires a session's scheduler seat (nil-safe).
func (e *Engine) detachSched(entry *schedEntry) {
	e.sched.detach(entry)
}

// attach publishes a registered session: the registry routes its
// connections from now on and parked connections are flushed to it. The
// caller must hold the sid grant from a successful register. If the
// engine died in between, the handler is told immediately.
func (e *Engine) attach(sid SessionID, h connHandler) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		h.listenerFailed(transport.ErrClosed)
		return
	}
	e.sessions[sid] = h
	flush := e.parked[sid]
	delete(e.parked, sid)
	e.nParked -= len(flush)
	for _, pc := range flush {
		e.dropParkIPLocked(pc)
	}
	e.mu.Unlock()

	for _, pc := range flush {
		pc.resolve <- parkResolution{h: h} // the park watcher hands it over
	}
}

// unregister detaches a session: its connections are refused from now on
// (inbound pings go unanswered, so predecessors route around it, exactly
// as if a dedicated listener had closed) and its pool grant returns to the
// global budget, which is the admission queue's release hook — freed
// budget immediately admits as many queued sessions as now fit. Only the
// owning handler may detach its session; stale calls are no-ops, so
// abandon paths and the Run epilogue can both call it safely.
func (e *Engine) unregister(sid SessionID, h connHandler) {
	e.mu.Lock()
	r, ok := e.reserved[sid]
	if !ok || r.owner != h {
		e.mu.Unlock()
		return
	}
	delete(e.sessions, sid)
	e.used -= r.bytes
	delete(e.reserved, sid)
	resolved := e.pumpAdmitQueueLocked()
	e.mu.Unlock()
	closeTickets(resolved)
}

func (e *Engine) acceptLoop() {
	for {
		c, err := e.lst.Accept()
		if err != nil {
			e.mu.Lock()
			wasClosed := e.closed
			e.closed = true
			handlers := e.allHandlersLocked()
			e.dropParkedLocked()
			resolved := e.pumpAdmitQueueLocked()
			e.mu.Unlock()
			closeTickets(resolved)
			if !wasClosed {
				// The listener died underneath running sessions (host
				// killed, fd exhaustion): release the socket and let
				// each session decide whether that is fatal.
				e.sched.close()
				_ = e.lst.Close()
				for _, h := range handlers {
					h.listenerFailed(err)
				}
			}
			return
		}
		go e.route(c)
	}
}

// route reads the opening HELLO (either version) and hands the connection
// to its session, or parks it until the session attaches. Liveness probes
// for unknown sessions are answered by silence, not parked: a detached
// (abandoned, finished) session must read as dead to its prober, and the
// prober's own deadline is far shorter than any park would last.
func (e *Engine) route(c transport.Conn) {
	w := newWire(c, e.clk)
	w.setReadDeadlineIn(e.opts.HelloTimeout)
	role, from, sid, err := w.readHelloAny()
	if err != nil {
		_ = w.close()
		return
	}
	ip := remoteIP(c.RemoteAddr())
	e.mu.Lock()
	if h, ok := e.sessions[sid]; ok {
		e.mu.Unlock()
		h.handleWire(w, role, from)
		return
	}
	if e.closed || role == RolePing || e.nParked >= e.opts.MaxParked {
		e.mu.Unlock()
		_ = w.close()
		return
	}
	// The shared park is further subdivided so no single bogus session ID
	// and no single remote dialer can pin the whole MaxParked budget.
	if len(e.parked[sid]) >= e.opts.MaxParkedPerSession {
		e.parkSessOver++
		e.mu.Unlock()
		_ = w.close()
		return
	}
	if ip != "" && e.parkedIP[ip] >= e.opts.MaxParkedPerIP {
		e.parkIPOver++
		e.mu.Unlock()
		_ = w.close()
		return
	}
	pc := &parkedConn{w: w, role: role, from: from, ip: ip, resolve: make(chan parkResolution, 1)}
	e.parked[sid] = append(e.parked[sid], pc)
	if ip != "" {
		e.parkedIP[ip]++
	}
	e.nParked++
	e.mu.Unlock()

	// Clear the HELLO deadline before the watcher starts: the peek must
	// wait as long as the park does, and only the adoption path may arm a
	// (wake-up) deadline from here on.
	_ = w.conn.SetReadDeadline(time.Time{})
	go e.watchParked(sid, pc)
}

// watchParked owns a parked connection until exactly one of three things
// happens: the session attaches (adopt), the park deadline passes (drop),
// or the remote end closes while parked (reap — the leak fix: a dialer
// that gave up must not pin a park slot until ParkTimeout). Remote close
// is observed with a blocking Peek on the connection's buffered reader,
// which never consumes protocol bytes — a fetch dialer's early PGET stays
// intact for the adopting session.
func (e *Engine) watchParked(sid SessionID, pc *parkedConn) {
	peeked := make(chan error, 1)
	go func() {
		_, err := pc.w.br.Peek(1)
		peeked <- err
	}()

	timer := e.clk.NewTimer(e.opts.ParkTimeout)
	defer timer.Stop()

	var res parkResolution
	peekDone := false
	select {
	case res = <-pc.resolve:
	case <-timer.C():
		e.unpark(sid, pc, &e.parkExpired)
		res = <-pc.resolve
	case err := <-peeked:
		peekDone = true
		if err == nil || transport.IsTimeout(err) {
			// Bytes are waiting (or a stray deadline fired): the remote is
			// alive; park on until adoption or expiry.
			select {
			case res = <-pc.resolve:
			case <-timer.C():
				e.unpark(sid, pc, &e.parkExpired)
				res = <-pc.resolve
			}
		} else {
			// Remote closed while parked: reap the slot immediately.
			e.unpark(sid, pc, &e.parkReaped)
			res = <-pc.resolve
		}
	}

	if res.h == nil {
		_ = pc.w.close()
		return
	}
	// Adopted: stop the peeker before the session touches the reader (the
	// bufio.Reader must never be shared), then clear the wake-up deadline.
	if !peekDone {
		_ = pc.w.conn.SetReadDeadline(time.Unix(1, 0))
		<-peeked
	}
	_ = pc.w.conn.SetReadDeadline(time.Time{})
	res.h.handleWire(pc.w, pc.role, pc.from)
}

// unpark removes pc from the park (if something else has not already) and
// resolves it as dropped, bumping counter when this call did the removal.
// Exactly one resolution is ever sent per parked connection: if attach or
// dropParkedLocked got there first, their resolution is already in flight
// and this call is a no-op.
func (e *Engine) unpark(sid SessionID, pc *parkedConn, counter *uint64) {
	e.mu.Lock()
	found := false
	queue := e.parked[sid]
	for i, q := range queue {
		if q == pc {
			queue = append(queue[:i], queue[i+1:]...)
			e.nParked--
			e.dropParkIPLocked(pc)
			found = true
			break
		}
	}
	if len(queue) == 0 {
		delete(e.parked, sid)
	} else {
		e.parked[sid] = queue
	}
	if found && counter != nil {
		*counter++
	}
	e.mu.Unlock()
	if found {
		pc.resolve <- parkResolution{}
	}
}

// dropParkedLocked resolves every parked connection as dropped; their
// watchers do the closing. Caller holds e.mu.
func (e *Engine) dropParkedLocked() {
	for sid, queue := range e.parked {
		for _, pc := range queue {
			e.dropParkIPLocked(pc)
			pc.resolve <- parkResolution{}
		}
		delete(e.parked, sid)
	}
	e.nParked = 0
}

// dropParkIPLocked releases one parked connection's per-IP accounting.
// Caller holds e.mu.
func (e *Engine) dropParkIPLocked(pc *parkedConn) {
	if pc.ip == "" {
		return
	}
	if n := e.parkedIP[pc.ip] - 1; n > 0 {
		e.parkedIP[pc.ip] = n
	} else {
		delete(e.parkedIP, pc.ip)
	}
}

// remoteIP extracts the host part of a "host:port" remote address (fabric
// host names count as the IP for park accounting purposes).
func remoteIP(addr string) string {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return host
}
