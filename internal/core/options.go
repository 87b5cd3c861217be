package core

import (
	"fmt"
	"time"
)

// Options tunes the protocol engine. The zero value selects production
// defaults via withDefaults; tests use much smaller timeouts.
//
// The paper singles out several of these as the interesting design knobs:
// the chunk size (§III-C: the stream is split into chunks so its total size
// need not be known upfront), the in-memory window kept for replay after a
// failure (§III-D2), and the failure-detection timeout (§IV-G: every
// triggered timeout costs about one second of transfer).
type Options struct {
	// ChunkSize is the DATA chunk granularity in bytes.
	ChunkSize int
	// WindowChunks is how many recent chunks a node with successors
	// retains in memory for replaying to a recovering one. It also bounds
	// how far a node may run ahead of its successor (back-pressure).
	// A node drops its window when it becomes the tail of its branch and
	// from then on keeps only the chunk it just ingested: static tree
	// leaves and the chain tail at once, UDP receivers from the start, a
	// relay the moment all its successors died. Node 0 keeps its window
	// throughout, and a re-ranking node keeps it until its manager ends,
	// since a view leaf may be promoted.
	WindowChunks int

	// MaxBatchBytes caps how many payload bytes the downstream sender
	// coalesces into one vectored DATA write (writev on TCP). The first
	// ready chunk is always sent, so a value below ChunkSize disables
	// batching without stalling. Defaults to 4 MiB.
	MaxBatchBytes int

	// Class names the broadcast's priority class on shared engines: it
	// drives admission-queue ordering and the weighted quanta of the
	// engine's data-plane scheduler (EngineOptions.Classes maps names to
	// weights; see ClassBulk/ClassInteractive). Empty behaves as weight 1.
	// It travels with the plan so every host schedules the session alike.
	Class string `json:"Class,omitempty"`
	// PoolChunks sizes the free list of the per-node chunk buffer pool,
	// which is also the node's reservation against its engine's
	// MemBudget. Defaults to WindowChunks plus a slack of 8 chunks for
	// frames in flight. Every node reserves the full pool, leaves
	// included: an agent is admitted at PREPARE, before START tells it
	// its role. A leaf's pool then cycles only a few buffers.
	PoolChunks int

	// WriteStallTimeout is how long a write to the successor may stall
	// before the failure detector probes it with a ping.
	WriteStallTimeout time.Duration
	// PingTimeout bounds the liveness probe (dial + PING + PONG).
	PingTimeout time.Duration
	// DialTimeout bounds each connection attempt; DialRetries attempts
	// are made before a successor is declared dead.
	DialTimeout time.Duration
	DialRetries int

	// GetTimeout is how long the sender side waits for the initial GET
	// on a fresh data connection.
	GetTimeout time.Duration
	// FetchTimeout is how long the sender side waits for a follow-up GET
	// after answering FORGET (the successor is fetching the gap from
	// node 1), and how long a gap fetch itself may take.
	FetchTimeout time.Duration
	// ReportTimeout bounds the report/PASSED exchange at the end.
	ReportTimeout time.Duration
	// UpstreamIdleTimeout is how long a node waits for a (replacement)
	// predecessor connection before giving the transfer up.
	UpstreamIdleTimeout time.Duration

	// DatagramBytes caps the payload carried by one UDP datagram on the
	// "udp" transport (header excluded). Defaults to 1200 bytes, safely
	// under the common 1500-byte path MTU. Only meaningful with
	// Plan.Transport == "udp".
	DatagramBytes int `json:"DatagramBytes,omitempty"`

	// MinThroughput enables the paper's future-work extension (§V): a
	// successor whose drain rate stays below this many bytes/second for
	// longer than SlowNodeGrace is excluded from the transfer exactly
	// like a dead node (it appears in the report with an "excluded"
	// reason). 0 disables exclusion.
	MinThroughput float64
	// SlowNodeGrace is the observation window before a slow successor
	// is excluded (default 10 s when MinThroughput is set).
	SlowNodeGrace time.Duration

	// Rerank enables Snow-style self-reorganization on tree topologies:
	// every node continuously measures its per-link drain rates, reports
	// them to node 0, and node 0 re-ranks the dissemination tree
	// mid-broadcast — slow interiors sink to the leaves, fast nodes rise
	// toward the root. Requires a "tree:<k>" topology. Where §V exclusion
	// is binary (a slow node is cut), demotion is free: the slow node
	// keeps receiving, it just stops throttling a subtree. Re-ranking
	// runs on trees, whose relays stay on the pooled path (rate
	// measurement needs user-space writes, and REORG frames interleave
	// with DATA).
	Rerank bool `json:"Rerank,omitempty"`
	// RerankInterval is the cadence of the rate-report spokes receivers
	// play against node 0 (default 500 ms).
	RerankInterval time.Duration `json:"RerankInterval,omitempty"`
	// RerankBoost is the hysteresis factor: an interior node is only
	// demoted while RerankBoost× its measured bottleneck still trails the
	// fastest link observed anywhere (default 2). Higher values demand
	// stronger evidence before the tree moves.
	RerankBoost float64 `json:"RerankBoost,omitempty"`
	// RerankMinInterval is the minimum spacing between executed
	// migrations (default 2×RerankInterval); per-node cooldowns are twice
	// this again. Together they bound migration churn.
	RerankMinInterval time.Duration `json:"RerankMinInterval,omitempty"`

	// Clock is the node's time source: deadlines, retry pacing and
	// epilogue timers all go through it, so deterministic tests can
	// substitute a fake. Nil selects the system clock. It is local
	// configuration, never serialised in agent start messages.
	Clock Clock `json:"-"`
}

// withDefaults fills in zero fields with production defaults.
func (o Options) withDefaults() Options {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1 << 20
	}
	if o.WindowChunks <= 0 {
		o.WindowChunks = 64
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 4 << 20
	}
	if o.PoolChunks <= 0 {
		o.PoolChunks = o.WindowChunks + poolSlack
	}
	def(&o.WriteStallTimeout, time.Second) // the paper's one-second timer
	def(&o.PingTimeout, 500*time.Millisecond)
	def(&o.DialTimeout, 5*time.Second)
	if o.DialRetries <= 0 {
		o.DialRetries = 2
	}
	def(&o.GetTimeout, 10*time.Second)
	def(&o.FetchTimeout, 2*time.Minute)
	def(&o.ReportTimeout, time.Minute)
	def(&o.UpstreamIdleTimeout, time.Minute)
	if o.MinThroughput > 0 {
		def(&o.SlowNodeGrace, 10*time.Second)
	}
	if o.Rerank {
		def(&o.RerankInterval, 500*time.Millisecond)
		if o.RerankBoost <= 1 {
			o.RerankBoost = 2
		}
		def(&o.RerankMinInterval, 2*o.RerankInterval)
	}
	if o.DatagramBytes <= 0 {
		o.DatagramBytes = 1200
	}
	if o.Clock == nil {
		o.Clock = SystemClock()
	}
	return o
}

// PoolReservation is the pooled-buffer byte budget a session running with
// these options asks its engine for — the admission reservation the control
// plane submits before any data connection is dialed.
func (o Options) PoolReservation() int64 {
	d := o.withDefaults()
	return int64(d.ChunkSize) * int64(d.PoolChunks)
}

// Validate rejects configurations the engine cannot run with.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.ChunkSize > maxFrameData {
		return fmt.Errorf("kascade: chunk size %d exceeds frame limit %d", o.ChunkSize, maxFrameData)
	}
	if o.WindowChunks < 2 {
		return fmt.Errorf("kascade: window of %d chunks is too small to pipeline", o.WindowChunks)
	}
	return nil
}

// pollInterval is the cadence at which blocked frame reads wake up to check
// for replacement connections or cancellation.
func (o Options) pollInterval() time.Duration {
	p := o.WriteStallTimeout / 4
	if p < 5*time.Millisecond {
		p = 5 * time.Millisecond
	}
	if p > 250*time.Millisecond {
		p = 250 * time.Millisecond
	}
	return p
}

// SessionID identifies one broadcast among the many a shared engine (or
// agent process) may carry concurrently. It travels in every HELLO v2
// frame so the accept path can route connections to the right pipeline.
// The zero ID is the v1-compatible default session: nodes running under it
// emit byte-identical v1 frames, and v1 dialers land on it.
type SessionID uint64

// Peer identifies one pipeline member.
type Peer struct {
	// Name is the host name (used in reports and for fabric addressing).
	Name string
	// Addr is the node's listen address, "host:port".
	Addr string
	// PacketAddr is the node's bound datagram address for the "udp"
	// transport; empty on TCP plans.
	PacketAddr string `json:"PacketAddr,omitempty"`
}

// Plan is the shared description of one broadcast: the ordered pipeline
// (element 0 is the sending node), the protocol options, and the broadcast
// session ID. Every node receives the same plan.
type Plan struct {
	Peers []Peer
	Opts  Options
	// Session identifies this broadcast on shared data listeners. 0 keeps
	// the node on the v1 wire format (single-broadcast processes).
	Session SessionID
	// Transport selects the data plane: "" or TransportTCP is the chunked
	// relay pipeline over stream connections; TransportUDP is the batched
	// datagram fan-out (node 0 sends to every receiver directly, losses are
	// repaired with PGET range fetches over TCP). Control traffic — HELLO,
	// PGET repair, the completion ring report — always runs over the stream
	// transport.
	Transport string `json:"Transport,omitempty"`
	// Topology selects the dissemination shape over the ordered peers:
	// "" or TopologyChain is the paper's linear pipeline (§III-A);
	// "tree:<k>" arranges the same order as a BFS k-ary tree (every relay
	// feeds up to k children from one replay window); and
	// TopologyScatterAllgather names the MPI-style composite, which is
	// dispatched outside core.Node (see internal/mpibcast). Like
	// Transport, it travels in PREPARE so every host runs the same shape.
	Topology string `json:"Topology,omitempty"`
}

// Data-plane transports carried in Plan.Transport.
const (
	TransportTCP = "tcp"
	TransportUDP = "udp"
)

// validateShape checks the transport × topology × options combination —
// the shape rules shared by SessionConfig.Validate (before addresses are
// bound) and Plan.Validate (resolved wire plans). Address checks stay
// with the caller: only resolved plans have addresses worth validating.
func validateShape(transport, topology string, opts Options) error {
	switch transport {
	case "", TransportTCP, TransportUDP:
	default:
		return fmt.Errorf("kascade: unknown transport %q", transport)
	}
	if topology != TopologyScatterAllgather {
		k, err := TreeArity(topology)
		if err != nil {
			return err
		}
		if k > 1 && transport == TransportUDP {
			return fmt.Errorf("kascade: udp transport already fans out from the sender; it cannot carry topology %q", topology)
		}
		if opts.Rerank && k <= 1 {
			return fmt.Errorf("kascade: rerank requires a tree topology (tree:<k>, k >= 2), not %q", topology)
		}
	} else if transport == TransportUDP {
		return fmt.Errorf("kascade: udp transport cannot carry topology %q", topology)
	} else if opts.Rerank {
		return fmt.Errorf("kascade: rerank requires a tree topology (tree:<k>, k >= 2), not %q", topology)
	}
	return opts.Validate()
}

// Validate checks the plan is runnable.
func (p *Plan) Validate() error {
	if len(p.Peers) == 0 {
		return fmt.Errorf("kascade: empty plan")
	}
	if err := validateShape(p.Transport, p.Topology, p.Opts); err != nil {
		return err
	}
	if p.Transport == TransportUDP {
		for i, peer := range p.Peers {
			if peer.PacketAddr == "" {
				return fmt.Errorf("kascade: udp transport: peer %d (%s) has no packet address", i, peer.Name)
			}
		}
	}
	seen := make(map[string]bool, len(p.Peers))
	for i, peer := range p.Peers {
		if peer.Addr == "" {
			return fmt.Errorf("kascade: peer %d (%s) has no address", i, peer.Name)
		}
		if seen[peer.Addr] {
			return fmt.Errorf("kascade: duplicate peer address %s", peer.Addr)
		}
		seen[peer.Addr] = true
	}
	return nil
}
