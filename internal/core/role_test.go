package core

import (
	"bytes"
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kascade/internal/transport"
)

// Per-role memory: nodes no successor can replay from (static tree
// leaves, the chain tail, a relay whose successors all died) keep only the
// chunk they just ingested; relays keep their full replay window.

// windowProbe is a verifying sink that also watches its node: on every
// write it samples how many chunks the node's window holds and notes which
// pool buffer the payload lives in (the sink sees the chunk itself, not a
// copy).
type windowProbe struct {
	verifySink
	node atomic.Pointer[Node]

	mu      sync.Mutex
	maxHeld int
	bufs    map[*byte]bool
}

func (p *windowProbe) Write(b []byte) (int, error) {
	held := 0
	if n := p.node.Load(); n != nil {
		held = n.ws.held()
	}
	p.mu.Lock()
	if held > p.maxHeld {
		p.maxHeld = held
	}
	if len(b) > 0 {
		p.bufs[&b[0]] = true
	}
	p.mu.Unlock()
	return p.verifySink.Write(b)
}

func (p *windowProbe) seen() (maxHeld, bufs int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxHeld, len(p.bufs)
}

// TestLeafWindowsOverTCP runs a 16-node binary tree and an 8-node chain
// over loopback TCP with verifying sinks. Every leaf and tail ends
// bit-perfect with a window that never held more than one chunk and a pool
// that cycled only a few buffers; every relay filled its window.
func TestLeafWindowsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	for _, tc := range []struct {
		name     string
		nodes    int
		k        int
		topology string
		leaves   int
	}{
		{"tree", 16, 2, TopologyTree(2), 8},
		{"chain", 8, 1, TopologyChain, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers, engines := tcpEngines(t, tc.nodes, nil)
			data := testPayload(6<<20, 31)
			probes := make([]*windowProbe, tc.nodes)
			sinks := make([]*verifySink, tc.nodes)
			for i := range probes {
				probes[i] = &windowProbe{verifySink: verifySink{want: data}, bufs: map[*byte]bool{}}
				sinks[i] = &probes[i].verifySink
			}
			opts := relayOpts(64<<10, 16)
			// Memory, not failure detection, is under test: a 16-engine
			// tree under -race on a small runner misses the 60 ms pings.
			opts.WriteStallTimeout, opts.PingTimeout = time.Second, 500*time.Millisecond
			sess, err := StartSession(context.Background(), SessionConfig{
				Peers:      peers,
				Opts:       opts,
				Session:    0x1eaf,
				Topology:   tc.topology,
				NetworkFor: func(int) transport.Network { return transport.TCP{} },
				EngineFor:  func(i int) *Engine { return engines[i] },
				SinkFor:    func(i int) io.Writer { return probes[i] },
				InputFile:  bytes.NewReader(data),
				InputSize:  int64(len(data)),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(sess.Nodes); i++ {
				probes[i].node.Store(sess.Nodes[i])
			}
			res, err := sess.Wait()
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			if len(res.Report.Failures) != 0 {
				t.Fatalf("failures: %+v", res.Report.Failures)
			}
			checkVerifySinks(t, sinks, len(data), -1)
			leaves := 0
			for i := 1; i < tc.nodes; i++ {
				held, bufs := probes[i].seen()
				if len(treeChildren(i, tc.k, tc.nodes)) == 0 {
					leaves++
					if held > 1 || bufs > 4 {
						t.Errorf("leaf %d: window held up to %d chunks (want <= 1), sink saw %d pool buffers (want <= 4)",
							i, held, bufs)
					}
				} else if held != opts.WindowChunks {
					t.Errorf("relay %d: window held up to %d chunks, want the full %d", i, held, opts.WindowChunks)
				}
			}
			if leaves != tc.leaves {
				t.Fatalf("%d leaves, want %d", leaves, tc.leaves)
			}
		})
	}
}

// TestRelayTurnedTailDropsWindow: a chain relay whose only successor dies
// mid-broadcast becomes the tail and frees its full window the moment it
// does, not one append per slot later; it still delivers bit-perfect.
func TestRelayTurnedTailDropsWindow(t *testing.T) {
	env := newTestEnv(3, 8<<10)
	env.fabric.SetDefaultProfile(transport.Profile{Rate: 2 << 20})
	data := testPayload(512<<10, 32)
	sess, err := StartSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	relay := sess.Nodes[1]
	window := testOpts().WindowChunks
	// A relay's ring, once full, stays full until it is released: kill
	// the successor only after that. Received bytes order the read of
	// relay.ws after prepare set it.
	killWhen(env, "n3", func() bool { return relay.BytesReceived() > 0 && relay.ws.held() == window })
	waitCond(t, 5*time.Second, relay.isTail)
	if count := relay.ws.held(); count > 1 {
		t.Errorf("relay holds %d chunks once it is the tail, want <= 1", count)
	}
	if head := relay.ws.Head(); head >= uint64(len(data)) {
		t.Errorf("relay turned tail only after ingesting all %d bytes, not mid-broadcast", head)
	}
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Failed(2) {
		t.Fatalf("report must list n3: %v", res.Report)
	}
	checkSink(t, env, 1, data)
}
