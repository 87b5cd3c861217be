package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kascade/internal/transport"
)

// Loopback TCP chains through the kernel tee relay. The chaos matrix runs
// on the in-memory fabric, which never takes the kernel path, so these are
// the recovery and failure-detector tests of the relay itself.

func requireKernelRelay(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("real sockets")
	}
	kernelRelayPairs(t)
}

func openFDCount(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// tcpEngines starts one engine per pipeline member on loopback TCP; nets
// may override a member's network.
func tcpEngines(t *testing.T, n int, nets map[int]transport.Network) ([]Peer, []*Engine) {
	t.Helper()
	peers := make([]Peer, n)
	engines := make([]*Engine, n)
	for i := range engines {
		var nw transport.Network = transport.TCP{}
		if o, ok := nets[i]; ok {
			nw = o
		}
		e, err := NewEngine(nw, "127.0.0.1:0", EngineOptions{})
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		t.Cleanup(func() { e.Close() })
		engines[i] = e
		peers[i] = Peer{Name: fmt.Sprintf("n%d", i+1), Addr: e.Addr()}
	}
	return peers, engines
}

func relayOpts(chunk, window int) Options {
	o := testOpts()
	o.ChunkSize = chunk
	o.WindowChunks = window
	o.UpstreamIdleTimeout = 1500 * time.Millisecond
	return o
}

func checkVerifySinks(t *testing.T, sinks []*verifySink, want int, skip int) {
	t.Helper()
	for i := 1; i < len(sinks); i++ {
		if i == skip {
			continue
		}
		off, corrupt := sinks[i].state()
		if corrupt || off != want {
			t.Errorf("node %d sink: %d of %d bytes, corrupt=%v", i, off, want, corrupt)
		}
	}
}

// TestTeeRelayChainStreamedSource runs an 8-node loopback chain from a
// streamed source with a verifying sink on every receiver: bit-perfect,
// at least 90% of the relayed bytes through the kernel, and no descriptor
// left behind.
func TestTeeRelayChainStreamedSource(t *testing.T) {
	requireKernelRelay(t)
	const nodes = 8
	peers, engines := tcpEngines(t, nodes, nil)
	data := testPayload(24<<20, 21)
	sinks := make([]*verifySink, nodes)
	for i := range sinks {
		sinks[i] = &verifySink{want: data}
	}
	before := openFDCount(t)
	res, err := RunSession(context.Background(), SessionConfig{
		Peers:      peers,
		Opts:       relayOpts(256<<10, 16),
		Session:    0x7ee,
		NetworkFor: func(int) transport.Network { return transport.TCP{} },
		EngineFor:  func(i int) *Engine { return engines[i] },
		SinkFor:    func(i int) io.Writer { return sinks[i] },
		Input:      bytes.NewReader(data),
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("failures: %+v", res.Report.Failures)
	}
	checkVerifySinks(t, sinks, len(data), -1)
	var spliced uint64
	for _, e := range engines {
		spliced += e.Stats().SplicedBytes
	}
	relayed := uint64(nodes-2) * uint64(len(data)) // every node with a successor, bar the sender
	t.Logf("spliced %d of %d relayed bytes (%.1f%%)", spliced, relayed, 100*float64(spliced)/float64(relayed))
	if spliced*10 < relayed*9 {
		t.Fatalf("spliced %d of %d relayed bytes, want >= 90%%", spliced, relayed)
	}
	waitCond(t, 3*time.Second, func() bool { return openFDCount(t) <= before })
	if after := openFDCount(t); after > before {
		t.Fatalf("descriptors: %d before the session, %d after", before, after)
	}
}

// crashNet is loopback TCP that can crash its host: kill closes every
// listener and connection it handed out and refuses further dials. The
// connections themselves are the plain TCP ones, so the host keeps the
// kernel relay until it dies.
type crashNet struct {
	mu    sync.Mutex
	dead  bool
	conns []transport.Conn
	lsts  []transport.Listener
}

func (c *crashNet) track(conn transport.Conn) (transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		conn.Close()
		return nil, errors.New("crashed")
	}
	c.conns = append(c.conns, conn)
	return conn, nil
}

func (c *crashNet) Dial(addr string, timeout time.Duration) (transport.Conn, error) {
	conn, err := transport.TCP{}.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return c.track(conn)
}

func (c *crashNet) Listen(addr string) (transport.Listener, error) {
	l, err := transport.TCP{}.Listen(addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.lsts = append(c.lsts, l)
	c.mu.Unlock()
	return crashListener{l, c}, nil
}

func (c *crashNet) kill() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = true
	for _, l := range c.lsts {
		l.Close()
	}
	for _, conn := range c.conns {
		conn.Close()
	}
}

type crashListener struct {
	transport.Listener
	net *crashNet
}

func (l crashListener) Accept() (transport.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if conn, err = l.net.track(conn); err == nil {
			return conn, nil
		}
	}
}

// pacedReaderAt serves a file-backed source no faster than one read per
// pause, which bounds how far any relay can run ahead of its successor.
type pacedReaderAt struct {
	r     io.ReaderAt
	pause time.Duration
}

func (p pacedReaderAt) ReadAt(b []byte, off int64) (int, error) {
	time.Sleep(p.pause)
	return p.r.ReadAt(b, off)
}

// crashingSink is the victim's sink: at the crash offset it stalls long
// enough for its predecessor to tee frames into its socket buffers that it
// never forwards, then crashes the host.
type crashingSink struct {
	*verifySink
	at    int
	stall time.Duration
	crash func()
	once  sync.Once
}

func (s *crashingSink) Write(p []byte) (int, error) {
	if off, _ := s.state(); off+len(p) >= s.at {
		s.once.Do(func() {
			time.Sleep(s.stall)
			s.crash()
		})
	}
	return s.verifySink.Write(p)
}

// TestTeeRelayCrashMidSpan kills a chain relay while its predecessor tees
// into it and it tees into its own successor. The predecessor names only
// the victim, the orphan resumes from the predecessor's retained window —
// no gap fetch from node 0, though the victim took frames it never
// forwarded — and every survivor is bit-perfect.
func TestTeeRelayCrashMidSpan(t *testing.T) {
	requireKernelRelay(t)
	const nodes, victim = 5, 2
	crash := &crashNet{}
	peers, engines := tcpEngines(t, nodes, map[int]transport.Network{victim: crash})
	data := testPayload(24<<20, 22)
	sinks := make([]*verifySink, nodes)
	for i := range sinks {
		sinks[i] = &verifySink{want: data}
	}
	// At ~128 MB/s the 50 ms stall lets at most ~6.4 MB pile up behind the
	// victim: well inside the predecessor's 16 MiB window.
	victimSink := &crashingSink{verifySink: sinks[victim], at: 6 << 20, stall: 50 * time.Millisecond, crash: crash.kill}
	var predSpliced, fetches atomic.Int64
	var predHead, resumeAt atomic.Uint64
	res, err := RunSession(context.Background(), SessionConfig{
		Peers:   peers,
		Opts:    relayOpts(256<<10, 64),
		Session: 0xc4a5,
		NetworkFor: func(i int) transport.Network {
			if i == victim {
				return crash
			}
			return transport.TCP{}
		},
		EngineFor: func(i int) *Engine { return engines[i] },
		SinkFor: func(i int) io.Writer {
			if i == victim {
				return victimSink
			}
			return sinks[i]
		},
		InputFile: pacedReaderAt{bytes.NewReader(data), 2 * time.Millisecond},
		InputSize: int64(len(data)),
		Trace: func(ev TraceEvent) {
			switch {
			case ev.Kind == TraceChunk && ev.Node == victim-1 && ev.Detail == "spliced":
				predSpliced.Add(1)
			case ev.Kind == TraceFailureDetected && ev.Node == victim-1:
				predHead.Store(ev.Offset)
			case ev.Kind == TraceUpstreamAccepted && ev.Node == victim+1 && ev.Peer == victim-1:
				resumeAt.Store(ev.Offset)
			case ev.Kind == TraceGapFetchStart:
				fetches.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if f := res.Report.Failures; len(f) != 1 || f[0].Index != victim {
		t.Fatalf("report names %+v, want only node %d", f, victim)
	}
	if predSpliced.Load() == 0 {
		t.Fatal("the victim's predecessor never teed into it")
	}
	if n := fetches.Load(); n != 0 {
		t.Fatalf("%d gap fetches from node 0; the orphan must resume from its new predecessor's window", n)
	}
	t.Logf("orphan resumed at %d, %d bytes behind its new predecessor", resumeAt.Load(), predHead.Load()-resumeAt.Load())
	checkVerifySinks(t, sinks, len(data), victim)
}

// countingNet counts the connections its listener accepts (one data
// connection plus one per ping answered), handing out the plain ones.
type countingNet struct {
	transport.TCP
	accepted *atomic.Int64
}

func (c countingNet) Listen(addr string) (transport.Listener, error) {
	l, err := c.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{l, c.accepted}, nil
}

type countingListener struct {
	transport.Listener
	accepted *atomic.Int64
}

func (l countingListener) Accept() (transport.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// pausingSink verifies like verifySink and stops taking data for pause
// after every every writes: its node stops reading, and the relay feeding
// it stalls past the write-stall timeout.
type pausingSink struct {
	*verifySink
	every int
	pause time.Duration
	n     int
}

func (s *pausingSink) Write(p []byte) (int, error) {
	if s.n++; s.n%s.every == 0 {
		time.Sleep(s.pause)
	}
	return s.verifySink.Write(p)
}

// TestTeeRelaySlowSuccessorNotNamed: a successor that pauses for longer
// than the stall timeout answers the relay's pings, so the kernel relay
// resumes byte-exactly and nobody is named failed.
func TestTeeRelaySlowSuccessorNotNamed(t *testing.T) {
	requireKernelRelay(t)
	data := testPayload(16<<20, 23)
	relaySink := &verifySink{want: data}
	tail := &pausingSink{verifySink: &verifySink{want: data}, every: 8, pause: 300 * time.Millisecond}
	var tailAccepts, spliced atomic.Int64
	peers := []Peer{{Name: "s", Addr: "127.0.0.1:0"}, {Name: "relay", Addr: "127.0.0.1:0"}, {Name: "tail", Addr: "127.0.0.1:0"}}
	res, err := RunSession(context.Background(), SessionConfig{
		Peers: peers,
		Opts:  relayOpts(256<<10, 16),
		NetworkFor: func(i int) transport.Network {
			if i == 2 {
				return countingNet{accepted: &tailAccepts}
			}
			return transport.TCP{}
		},
		SinkFor: func(i int) io.Writer {
			if i == 1 {
				return relaySink
			}
			return tail
		},
		InputFile: bytes.NewReader(data),
		InputSize: int64(len(data)),
		Trace: func(ev TraceEvent) {
			if ev.Kind == TraceChunk && ev.Node == 1 && ev.Detail == "spliced" {
				spliced.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("a slow but live successor was named: %+v", res.Report.Failures)
	}
	checkVerifySinks(t, []*verifySink{nil, relaySink, tail.verifySink}, len(data), -1)
	if spliced.Load() == 0 {
		t.Fatal("the relay never took the kernel path")
	}
	if tailAccepts.Load() < 2 {
		t.Fatal("the slow successor was never pinged; the test did not stall the relay")
	}
	t.Logf("spliced frames %d, tail accepts %d", spliced.Load(), tailAccepts.Load())
}

// freezeProxy is a TCP forwarder in front of a host's real listener. Once
// frozen it stops forwarding in both directions and drops new dials (the
// relay's pings among them): the successor looks exactly like a hung host.
type freezeProxy struct {
	ln     net.Listener
	target string
	frozen atomic.Bool
	halt   chan struct{}
	once   sync.Once
	mu     sync.Mutex
	conns  []net.Conn
}

func (p *freezeProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.frozen.Load() {
			c.Close()
			continue
		}
		u, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, u)
		p.mu.Unlock()
		go p.pump(c, u)
		go p.pump(u, c)
	}
}

func (p *freezeProxy) pump(from, to net.Conn) {
	buf := make([]byte, 64<<10)
	for {
		n, err := from.Read(buf)
		if p.frozen.Load() {
			<-p.halt
			return
		}
		if n > 0 {
			if _, werr := to.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			to.Close()
			return
		}
	}
}

func (p *freezeProxy) freeze() { p.frozen.Store(true) }

// close tears every proxied connection down: the frozen host's upstream
// finally sees its predecessor gone.
func (p *freezeProxy) close() {
	p.once.Do(func() {
		p.ln.Close()
		close(p.halt)
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, c := range p.conns {
			c.Close()
		}
	})
}

// proxiedNet binds the real listener and reports the proxy's address in
// its place, so every peer dials the host through the proxy.
type proxiedNet struct {
	transport.TCP
	proxy *freezeProxy
}

func (n *proxiedNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.Close()
		return nil, err
	}
	n.proxy = &freezeProxy{ln: pl, target: l.Addr(), halt: make(chan struct{})}
	go n.proxy.serve()
	return proxiedListener{l, pl.Addr().String()}, nil
}

type proxiedListener struct {
	transport.Listener
	addr string
}

func (l proxiedListener) Addr() string { return l.addr }

// TestTeeRelayHungSuccessorNamedPromptly hangs a successor behind a proxy
// while the relay tees into it: the stall rule names it within about one
// stall timeout plus one ping, not after FetchTimeout, and the tail behind
// it is served bit-perfect by the relay instead.
func TestTeeRelayHungSuccessorNamedPromptly(t *testing.T) {
	requireKernelRelay(t)
	const hung = 2
	data := testPayload(32<<20, 24)
	sinks := make([]*verifySink, 4)
	for i := range sinks {
		sinks[i] = &verifySink{want: data}
	}
	opts := relayOpts(256<<10, 64)
	opts.FetchTimeout = 10 * time.Second // only the stall rule can name it in time
	pn := &proxiedNet{}
	t.Cleanup(func() {
		if pn.proxy != nil {
			pn.proxy.close()
		}
	})
	var spliced atomic.Int64
	var frozeAt, namedAt atomic.Int64
	peers := make([]Peer, 4)
	for i := range peers {
		peers[i] = Peer{Name: fmt.Sprintf("n%d", i+1), Addr: "127.0.0.1:0"}
	}
	res, err := RunSession(context.Background(), SessionConfig{
		Peers: peers,
		Opts:  opts,
		NetworkFor: func(i int) transport.Network {
			if i == hung {
				return pn
			}
			return transport.TCP{}
		},
		SinkFor:   func(i int) io.Writer { return sinks[i] },
		InputFile: bytes.NewReader(data),
		InputSize: int64(len(data)),
		Trace: func(ev TraceEvent) {
			switch {
			case ev.Kind == TraceChunk && ev.Node == hung-1 && ev.Detail == "spliced":
				if spliced.Add(1) == 8 {
					frozeAt.Store(time.Now().UnixNano())
					pn.proxy.freeze()
				}
			case ev.Kind == TraceFailureDetected && ev.Node == hung-1 && ev.Peer == hung:
				namedAt.Store(time.Now().UnixNano())
				go pn.proxy.close()
			}
		},
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if f := res.Report.Failures; len(f) != 1 || f[0].Index != hung {
		t.Fatalf("report names %+v, want only node %d", f, hung)
	}
	if frozeAt.Load() == 0 || namedAt.Load() == 0 {
		t.Fatal("the relay was not teeing when the successor hung")
	}
	took := time.Duration(namedAt.Load() - frozeAt.Load())
	t.Logf("hung successor named %v after the freeze (stall %v, ping %v)", took, opts.WriteStallTimeout, opts.PingTimeout)
	if took > 2*time.Second {
		t.Fatalf("hung successor named after %v, want about one stall timeout plus one ping", took)
	}
	checkVerifySinks(t, sinks, len(data), hung)
}
