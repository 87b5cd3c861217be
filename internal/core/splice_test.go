package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"kascade/internal/transport"
)

// ---------------------------------------------------------------------------
// Gate unit tests.

func TestSpliceGateLifecycle(t *testing.T) {
	g := &spliceGate{}
	o := &spliceOffer{resp: make(chan spliceResult, 1)}
	if ok, _ := g.post(o); !ok {
		t.Fatal("fresh gate rejected an offer")
	}
	// Only one offer may be pending.
	if ok, noRetry := g.post(&spliceOffer{}); ok || noRetry {
		t.Fatal("second offer must bounce transiently")
	}
	if got := g.take(); got != o {
		t.Fatal("take did not claim the pending offer")
	}
	if g.take() != nil {
		t.Fatal("take twice returned an offer")
	}
	// Withdraw only wins while the offer is still pending.
	if ok, _ := g.post(o); !ok {
		t.Fatal("repost rejected")
	}
	if !g.withdraw(o) {
		t.Fatal("withdraw lost with no claimant")
	}
	if g.withdraw(o) {
		t.Fatal("withdraw won twice")
	}
}

func TestSpliceGateSuspendAndClose(t *testing.T) {
	g := &spliceGate{}
	g.suspend()
	if ok, noRetry := g.post(&spliceOffer{}); ok || noRetry {
		t.Fatal("suspended gate must bounce transiently")
	}
	g.resume()
	o := &spliceOffer{resp: make(chan spliceResult, 1)}
	if ok, _ := g.post(o); !ok {
		t.Fatal("resumed gate rejected an offer")
	}
	g.close()
	select {
	case res := <-o.resp:
		if res.engaged || !res.noRetry {
			t.Fatalf("close must decline permanently, got %+v", res)
		}
	default:
		t.Fatal("close left the pending offer unresolved")
	}
	if ok, noRetry := g.post(&spliceOffer{}); ok || !noRetry {
		t.Fatal("closed gate must decline permanently")
	}
}

func TestSpliceGateResolveTransient(t *testing.T) {
	g := &spliceGate{}
	o := &spliceOffer{resp: make(chan spliceResult, 1)}
	if ok, _ := g.post(o); !ok {
		t.Fatal("post rejected")
	}
	g.resolveTransient()
	select {
	case res := <-o.resp:
		if res.engaged || res.noRetry {
			t.Fatalf("transient resolution expected, got %+v", res)
		}
	default:
		t.Fatal("resolveTransient left the offer unresolved")
	}
	if ok, _ := g.post(&spliceOffer{resp: make(chan spliceResult, 1)}); !ok {
		t.Fatal("gate must stay open after a transient resolution")
	}
}

// TestSpliceOfferDeclinedUnderBackPressure: an offer posted while the
// upstream is parked on a full window can never be claimed (the upstream
// never reaches the next frame), so the window's back-pressure hook must
// decline it and let the offerer drain instead of deadlocking.
func TestSpliceOfferDeclinedUnderBackPressure(t *testing.T) {
	n := newSpliceTestNode(t)
	for i := 0; i < n.opts.WindowChunks; i++ {
		if err := n.ws.AppendBytes(make([]byte, n.opts.ChunkSize)); err != nil {
			t.Fatal(err)
		}
	}
	appended := make(chan error, 1)
	go func() { appended <- n.ws.AppendBytes(make([]byte, n.opts.ChunkSize)) }()
	waitCond(t, 5*time.Second, func() bool {
		n.ws.mu.Lock()
		defer n.ws.mu.Unlock()
		return n.ws.waiters > 0
	})
	resolved := make(chan spliceResult, 1)
	go func() {
		_, res, _ := n.offerSplice(context.Background(), n.ws.Head(), nil, nil)
		resolved <- res
	}()
	select {
	case res := <-resolved:
		if res.engaged || res.noRetry {
			t.Fatalf("want a transient decline, got %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("offer still parked behind a back-pressured upstream")
	}
	n.ws.SetLowWater(n.ws.Head())
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// teeFrame unit tests, against fake connections.

// fakeConn is an in-memory transport.Conn: reads from r, writes into w.
type fakeConn struct {
	r io.Reader
	w bytes.Buffer
}

func (c *fakeConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *fakeConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *fakeConn) Close() error                     { return nil }
func (c *fakeConn) SetDeadline(time.Time) error      { return nil }
func (c *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }
func (c *fakeConn) LocalAddr() string                { return "fake:0" }
func (c *fakeConn) RemoteAddr() string               { return "fake:0" }

// fakeRelay stands in for the kernel tee relay: it copies from src into
// both the caller's buffer and dst. It can fail after failAfter bytes — on
// the source side, or on the successor side with failDst — and its first
// stalls calls deliver half of what is asked and then report a successor
// write timeout.
type fakeRelay struct {
	src       io.Reader
	dst       *bytes.Buffer
	failAfter int // <0: never fail
	failDst   bool
	stalls    int
	moved     int
}

func (r *fakeRelay) Tee(p []byte) (int, error) {
	n := len(p)
	if r.stalls > 0 {
		r.stalls--
		n /= 2
	}
	if r.failAfter >= 0 && r.moved+n > r.failAfter {
		n = r.failAfter - r.moved
	}
	if _, err := io.ReadFull(r.src, p[:n]); err != nil {
		return 0, err
	}
	r.dst.Write(p[:n])
	r.moved += n
	switch {
	case n == len(p):
		return n, nil
	case r.failAfter >= 0 && r.moved == r.failAfter && r.failDst:
		return n, &transport.TeeWriteError{Err: errors.New("fake: successor reset")}
	case r.failAfter >= 0 && r.moved == r.failAfter:
		return n, errors.New("fake: upstream reset mid-frame")
	default:
		return n, &transport.TeeWriteError{Err: os.ErrDeadlineExceeded}
	}
}

func (r *fakeRelay) Salvage(p []byte) error {
	_, err := io.ReadFull(r.src, p)
	return err
}

func (r *fakeRelay) Close() error { return nil }

func newSpliceTestNode(t *testing.T) *Node { return newTeeTestNode(t, udpTestOpts()) }

func newTeeTestNode(t *testing.T, opts Options) *Node {
	t.Helper()
	env := newTestEnv(3, 64<<10)
	l, err := env.fabric.Host("n2").Listen("n2:7000")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	n, err := NewNode(NodeConfig{
		Index:    1,
		Plan:     Plan{Peers: env.peers, Opts: opts},
		Network:  env.fabric.Host("n2"),
		Listener: l,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.prepare(); err != nil { // pool and window, as Run builds them
		t.Fatal(err)
	}
	return n
}

// engagedOffer is a claimed offer whose successor is dst, relayed by relay;
// probe stands in for the successor's ping answer.
func engagedOffer(n *Node, dst transport.Conn, relay transport.TeeRelay, probe func() bool) *spliceOffer {
	return &spliceOffer{
		out: &stallWriter{
			conn:   dst,
			now:    n.clk.Now,
			stall:  time.Second,
			budget: 5 * time.Second,
			probe:  probe,
		},
		relay: relay,
	}
}

func alive() bool { return true }

// checkForwarded asserts the successor received exactly one DATA frame
// carrying payload.
func checkForwarded(t *testing.T, out []byte, payload []byte) {
	t.Helper()
	if len(out) != dataFrameHeader+len(payload) {
		t.Fatalf("successor got %d bytes, want %d", len(out), dataFrameHeader+len(payload))
	}
	if MsgType(out[0]) != MsgData || int(binary.BigEndian.Uint32(out[1:])) != len(payload) {
		t.Fatalf("bad frame header % x", out[:dataFrameHeader])
	}
	if !bytes.Equal(out[dataFrameHeader:], payload) {
		t.Fatal("payload corrupted in transit")
	}
}

func TestSpliceFrameMovesWholeFrame(t *testing.T) {
	n := newSpliceTestNode(t)
	payload := testPayload(10<<10, 9)
	src := &fakeConn{r: bytes.NewReader(payload)}
	w := n.newWire(src)
	// Force part of the payload through the read-buffer prefix path.
	if _, err := w.br.Peek(1024); err != nil {
		t.Fatal(err)
	}
	dst := &fakeConn{}
	o := engagedOffer(n, dst, &fakeRelay{src: src, dst: &dst.w, failAfter: -1}, alive)
	c, down, err := n.teeFrame(w, o, len(payload))
	if err != nil || down != nil {
		t.Fatalf("teeFrame: down=%v err=%v", down, err)
	}
	defer c.release()
	if !bytes.Equal(c.bytes(), payload) {
		t.Fatal("kept chunk differs from the frame")
	}
	checkForwarded(t, dst.w.Bytes(), payload)
}

func TestSpliceFrameMidFrameError(t *testing.T) {
	n := newSpliceTestNode(t)
	payload := testPayload(8<<10, 10)
	src := &fakeConn{r: bytes.NewReader(payload)}
	w := n.newWire(src)
	dst := &fakeConn{}
	o := engagedOffer(n, dst, &fakeRelay{src: src, dst: &dst.w, failAfter: 512}, alive)
	if c, _, err := n.teeFrame(w, o, len(payload)); err == nil || c != nil {
		t.Fatal("upstream error mid-frame not surfaced")
	}
}

// TestTeeFrameSuccessorFailureKeepsFrame: a successor lost mid-frame costs
// only the downstream connection; the frame is completed from upstream.
func TestTeeFrameSuccessorFailureKeepsFrame(t *testing.T) {
	n := newSpliceTestNode(t)
	payload := testPayload(8<<10, 11)
	src := &fakeConn{r: bytes.NewReader(payload)}
	w := n.newWire(src)
	dst := &fakeConn{}
	o := engagedOffer(n, dst, &fakeRelay{src: src, dst: &dst.w, failAfter: 2048, failDst: true}, alive)
	c, down, err := n.teeFrame(w, o, len(payload))
	if err != nil || down == nil {
		t.Fatalf("teeFrame: down=%v err=%v; want a successor failure only", down, err)
	}
	defer c.release()
	if !bytes.Equal(c.bytes(), payload) {
		t.Fatal("frame not completed from upstream after the successor failed")
	}
}

// TestTeeFrameStallRule drives the kernel path through the pooled path's
// failure detector: a stall with an answered ping resumes byte-exactly, an
// unanswered ping names the successor dead.
func TestTeeFrameStallRule(t *testing.T) {
	n := newSpliceTestNode(t)
	payload := testPayload(64<<10, 12)

	src := &fakeConn{r: bytes.NewReader(payload)}
	w := n.newWire(src)
	dst := &fakeConn{}
	var pings int
	o := engagedOffer(n, dst, &fakeRelay{src: src, dst: &dst.w, failAfter: -1, stalls: 3},
		func() bool { pings++; return true })
	c, down, err := n.teeFrame(w, o, len(payload))
	if err != nil || down != nil {
		t.Fatalf("answered pings: down=%v err=%v", down, err)
	}
	c.release()
	if pings != 3 {
		t.Fatalf("%d pings for 3 stalls", pings)
	}
	checkForwarded(t, dst.w.Bytes(), payload)

	src = &fakeConn{r: bytes.NewReader(payload)}
	w = n.newWire(src)
	dst = &fakeConn{}
	o = engagedOffer(n, dst, &fakeRelay{src: src, dst: &dst.w, failAfter: -1, stalls: 1},
		func() bool { return false })
	c, down, err = n.teeFrame(w, o, len(payload))
	var pd *peerDeadError
	if err != nil || !errors.As(down, &pd) {
		t.Fatalf("unanswered ping: down=%v err=%v; want a peerDeadError", down, err)
	}
	defer c.release()
	if !bytes.Equal(c.bytes(), payload) {
		t.Fatal("frame not completed from upstream after the successor died")
	}
}

// fakeSplicerConn is a successor connection that accepts any source and
// hands out relay.
type fakeSplicerConn struct {
	fakeConn
	relay transport.TeeRelay
}

func (c *fakeSplicerConn) CanSpliceFrom(transport.Conn) bool { return true }

func (c *fakeSplicerConn) TeeFrom(transport.Conn) (transport.TeeRelay, error) {
	return c.relay, nil
}

// TestEngageSendsBacklog: a sender that offers while behind the store head
// is first brought up to the head from the window, then the span starts.
func TestEngageSendsBacklog(t *testing.T) {
	n := newSpliceTestNode(t)
	chunks := [][]byte{
		testPayload(n.opts.ChunkSize, 31),
		testPayload(n.opts.ChunkSize, 32),
		testPayload(n.opts.ChunkSize/2, 33),
	}
	for _, c := range chunks {
		if err := n.ws.AppendBytes(c); err != nil {
			t.Fatal(err)
		}
	}
	dst := &fakeSplicerConn{relay: &fakeRelay{failAfter: -1}}
	o := engagedOffer(n, dst, nil, alive)
	o.w = n.newWire(dst)
	o.w.out = o.out
	o.resp = make(chan spliceResult, 1)
	o.done = make(chan struct{})
	if !n.engage(o, n.newWire(&fakeConn{})) {
		t.Fatalf("engage declined: err=%v", o.err)
	}
	if res := <-o.resp; !res.engaged {
		t.Fatalf("resolution %+v, want engaged", res)
	}
	if o.moved != n.ws.Head() {
		t.Fatalf("backlog moved %d bytes, want %d", o.moved, n.ws.Head())
	}
	out := dst.w.Bytes()
	for i, c := range chunks {
		checkForwarded(t, out[:dataFrameHeader+len(c)], c)
		out = out[dataFrameHeader+len(c):]
		if t.Failed() {
			t.Fatalf("backlog frame %d", i)
		}
	}
	if len(out) != 0 {
		t.Fatalf("%d stray bytes after the backlog", len(out))
	}
}

// ---------------------------------------------------------------------------
// The kernel relay over real loopback sockets.

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair(t *testing.T) (dialed, accepted transport.Conn) {
	t.Helper()
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer l.Close()
	acc := make(chan transport.Conn, 1)
	go func() {
		c, _ := l.Accept()
		acc <- c
	}()
	d, err := transport.TCP{}.Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a := <-acc
	if a == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { d.Close(); a.Close() })
	return d, a
}

// kernelRelayPairs returns an upstream pair (the test writes into up, the
// relay reads from upR) and a downstream pair (the relay writes into
// down, the test reads downR), skipping where the kernel relay is absent.
func kernelRelayPairs(t *testing.T) (up, upR, down, downR transport.Conn) {
	t.Helper()
	up, upR = loopbackPair(t)
	down, downR = loopbackPair(t)
	if !transport.CanSplice(upR, down) {
		t.Skip("no kernel relay on this platform")
	}
	return up, upR, down, downR
}

func dataFrame(payload []byte) []byte {
	f := make([]byte, dataFrameHeader, dataFrameHeader+len(payload))
	f[0] = byte(MsgData)
	binary.BigEndian.PutUint32(f[1:], uint32(len(payload)))
	return append(f, payload...)
}

// TestTeeFramePrefixOverTCP relays a frame whose first bytes already sit
// in the wire's read buffer: the prefix crosses from user space, the rest
// through the kernel, and both the successor and the kept chunk see the
// whole frame.
func TestTeeFramePrefixOverTCP(t *testing.T) {
	up, upR, down, downR := kernelRelayPairs(t)
	n := newTeeTestNode(t, testOpts())
	payload := testPayload(1<<20+3, 13)
	go up.Write(dataFrame(payload))
	w := n.newWire(upR)
	w.setReadDeadlineIn(5 * time.Second)
	if typ, err := w.readType(); err != nil || typ != MsgData {
		t.Fatalf("readType = %v, %v", typ, err)
	}
	size, err := w.readDataSize()
	if err != nil {
		t.Fatal(err)
	}
	if w.br.Buffered() == 0 {
		t.Fatal("no payload prefix in the read buffer; the test needs one")
	}
	relay, err := down.(transport.Splicer).TeeFrom(upR)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	got := make(chan []byte, 1)
	go func() {
		b := make([]byte, dataFrameHeader+len(payload))
		k, _ := io.ReadFull(downR, b)
		got <- b[:k]
	}()
	c, down2, err := n.teeFrame(w, engagedOffer(n, down, relay, alive), size)
	if err != nil || down2 != nil {
		t.Fatalf("teeFrame: down=%v err=%v", down2, err)
	}
	defer c.release()
	if !bytes.Equal(c.bytes(), payload) {
		t.Fatal("kept chunk differs from the frame")
	}
	checkForwarded(t, <-got, payload)
}

// TestTeePathAllocs is TestRelayPathAllocs for the kernel relay: read the
// frame header, tee the payload to the successor into a pooled chunk, and
// retain it in the window. Steady state must not allocate.
func TestTeePathAllocs(t *testing.T) {
	up, upR, down, downR := kernelRelayPairs(t)
	const chunkSize = 64 << 10
	opts := testOpts()
	opts.ChunkSize = chunkSize
	n := newTeeTestNode(t, opts)
	go func() {
		buf := make([]byte, 256<<10)
		for {
			if _, err := downR.Read(buf); err != nil {
				return
			}
		}
	}()
	relay, err := down.(transport.Splicer).TeeFrom(upR)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	o := engagedOffer(n, down, relay, alive)
	w := n.newWire(upR)
	frame := dataFrame(testPayload(chunkSize, 14))
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := up.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := w.readType(); err != nil {
			t.Fatal(err)
		}
		size, err := w.readDataSize()
		if err != nil {
			t.Fatal(err)
		}
		c, down, err := n.teeFrame(w, o, size)
		if err != nil || down != nil {
			t.Fatalf("teeFrame: down=%v err=%v", down, err)
		}
		if err := n.ingestForwarded(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("tee path allocates %.1f times per chunk, want <= 1", allocs)
	}
}

// ---------------------------------------------------------------------------
// Fallback matrix: transports that cannot splice run the pooled path,
// bit-perfect, with zero engaged spans.

func TestSpliceFallbackOnFabric(t *testing.T) {
	env := newTestEnv(3, 256<<10)
	data := testPayload(300<<10, 11)
	cfg := env.config(data, false)
	var spliced atomic.Int64
	cfg.Trace = func(ev TraceEvent) {
		if ev.Kind == TraceChunk && ev.Detail == "spliced" {
			spliced.Add(1)
		}
	}
	res, err := RunSession(context.Background(), cfg)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if res.Report.TotalBytes != uint64(len(data)) {
		t.Fatalf("total %d, want %d", res.Report.TotalBytes, len(data))
	}
	if spliced.Load() != 0 {
		t.Fatalf("%d frames spliced on the in-memory fabric", spliced.Load())
	}
	checkSink(t, env, 1, data)
	checkSink(t, env, 2, data)
}

// TestSpliceEngagesOnLoopback runs a real-TCP 3-node chain: on Linux the
// relay in the middle must tee the stream through the kernel, and both its
// own sink and the tail's must stay bit-perfect either way.
func TestSpliceEngagesOnLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	peers := []Peer{
		{Name: "s", Addr: "127.0.0.1:0"},
		{Name: "relay", Addr: "127.0.0.1:0"},
		{Name: "tail", Addr: "127.0.0.1:0"},
	}
	data := testPayload(2<<20, 12)
	sinks := []*collectSink{nil, {}, {}}
	var spliced atomic.Int64
	cfg := SessionConfig{
		Peers:      peers,
		Opts:       testOpts(),
		NetworkFor: func(int) transport.Network { return transport.TCP{} },
		SinkFor:    func(i int) io.Writer { return sinks[i] },
		InputFile:  bytes.NewReader(data),
		InputSize:  int64(len(data)),
		Trace: func(ev TraceEvent) {
			if ev.Node == 1 && ev.Kind == TraceChunk && ev.Detail == "spliced" {
				spliced.Add(1)
			}
		},
	}
	res, err := RunSession(context.Background(), cfg)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if res.Report.TotalBytes != uint64(len(data)) {
		t.Fatalf("total %d, want %d", res.Report.TotalBytes, len(data))
	}
	for i := 1; i < 3; i++ {
		if !bytes.Equal(sinks[i].Bytes(), data) {
			t.Fatalf("node %d payload mismatch (%d bytes)", i, len(sinks[i].Bytes()))
		}
	}
	if transport.CanSplice(&fakeConn{}, &fakeConn{}) {
		t.Fatal("sanity: fake conns must not splice")
	}
	if runtime.GOOS == "linux" && spliced.Load() == 0 {
		t.Fatal("the relay never took the kernel path on Linux")
	}
	t.Logf("spliced frames: %d", spliced.Load())
}

// TestSpliceEligibility pins the constructor-time gating matrix: every
// chain relay, sink or not, takes the kernel relay; the sender, tree
// relays, the udp plane and §V measurement stay pooled.
func TestSpliceEligibility(t *testing.T) {
	base := func() (*NodeConfig, *Options) {
		o := testOpts().withDefaults()
		return &NodeConfig{Index: 1, Sink: &collectSink{}}, &o
	}
	cases := []struct {
		name string
		mod  func(*NodeConfig, *Options)
		want bool
	}{
		{"relay with a sink", func(*NodeConfig, *Options) {}, true},
		{"relay without a sink", func(c *NodeConfig, _ *Options) { c.Sink = nil }, true},
		{"explicit chain", func(c *NodeConfig, _ *Options) { c.Plan.Topology = TopologyChain }, true},
		{"tree:1 is a chain", func(c *NodeConfig, _ *Options) { c.Plan.Topology = TopologyTree(1) }, true},
		{"sender", func(c *NodeConfig, _ *Options) { c.Index = 0 }, false},
		{"tree relay", func(c *NodeConfig, _ *Options) { c.Plan.Topology = TopologyTree(2) }, false},
		{"udp plane", func(c *NodeConfig, _ *Options) { c.Plan.Transport = TransportUDP }, false},
		{"§V measurement", func(_ *NodeConfig, o *Options) { o.MinThroughput = 1 }, false},
		{"bad topology", func(c *NodeConfig, _ *Options) { c.Plan.Topology = "ring" }, false},
	}
	for _, tc := range cases {
		cfg, o := base()
		tc.mod(cfg, o)
		if got := spliceEligible(cfg, o); got != tc.want {
			t.Errorf("%s: eligible=%v, want %v", tc.name, got, tc.want)
		}
	}
}
