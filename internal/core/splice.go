package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"kascade/internal/transport"
)

// Kernel tee relay for chain relays. A relay's pooled path copies every
// payload twice through user space: read(2) from the upstream socket into a
// pool chunk, writev(2) from that chunk to the successor. The tee relay
// moves the payload upstream-socket → pipe → successor-socket inside the
// kernel (splice(2)) and duplicates it on the way (tee(2)) into a second
// pipe that is read into the pool chunk — one user-space copy per hop, and
// the chunk is still retained in the window and written to the sink
// exactly as ingest does (transport/splice_linux.go has the kernel side).
//
// The handoff between the two per-connection goroutines is a rendezvous
// gate owned by the node:
//
//   - The downstream sender, on finding itself caught up (its send offset
//     at the store head, or close behind it: offerReady), posts a
//     spliceOffer carrying its offset and its successor wire, then parks
//     until the offer resolves.
//   - The upstream receiver, on the next DATA frame, claims the offer. If
//     the connections cannot splice (in-memory fabric, wrapped or non-TCP
//     connections, non-Linux builds) it declines permanently — the sender
//     never offers again on this connection; otherwise it engages: it
//     opens a tee relay (one pipe pair for the whole span), owns the
//     downstream connection, sends the sender's backlog from the window,
//     and relays whole frames until a non-DATA frame (or an error) ends the
//     span, then closes the offer's done channel with the byte count
//     delivered.
//
// Every frame crosses atomically: the span only ever ends on a frame
// boundary, so both byte streams stay parseable and the pooled path resumes
// seamlessly — recovery, replay and END handling are untouched. Writes to
// the successor follow the pooled path's failure detector (stallWriter): a
// stall pings, an answered ping resumes byte-exactly from what the kernel
// still holds, an unanswered one names the successor dead. A dead successor
// only costs the downstream connection: the frame is completed from
// upstream and retained unconsumed for whoever takes over. An upstream
// error mid-frame is the one case that tears both streams, so both
// connections are killed and the node stays on the pooled path from then on
// (spliceBroken); the existing reconnect/FORGET/PGET machinery
// re-synchronises both sides without data loss.

// spliceResult is the gate's answer to one offer.
type spliceResult struct {
	engaged bool
	// noRetry marks a permanent decline: this successor connection will
	// never splice (incapable transport, broken splice, stream over), so
	// the sender stops offering on it.
	noRetry bool
}

// spliceOffer is one parked downstream sender: its send offset, its wire
// to the successor and the stall-detecting writer under it, and the
// channels resolving its fate.
type spliceOffer struct {
	off  uint64
	w    *wire
	out  *stallWriter
	resp chan spliceResult // buffered(1): claim or decline
	done chan struct{}     // engaged only: closed when the span ends

	// Owned by the engaging side for the span.
	relay transport.TeeRelay
	hdr   [dataFrameHeader]byte

	// Written by the engaging side strictly before close(done).
	moved uint64 // bytes delivered to the successor during the span
	err   error  // non-nil: the successor connection is lost
}

// finish ends an engaged span and releases its kernel pipes.
func (o *spliceOffer) finish() {
	if o.relay != nil {
		_ = o.relay.Close()
	}
	close(o.done)
}

// spliceGate is the node-level rendezvous point. It outlives individual
// connections on both sides: a pending offer survives an upstream
// reconnect and is claimed by the replacement predecessor.
type spliceGate struct {
	mu        sync.Mutex
	pending   *spliceOffer
	suspended bool // offers bounce (transient) while a gap fetch ingests
	closed    bool // offers bounce (permanent) once the stream is over
}

// post submits an offer. ok reports whether it was accepted; on false,
// noRetry distinguishes a closed gate from a transient bounce.
func (g *spliceGate) post(o *spliceOffer) (ok, noRetry bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false, true
	}
	if g.suspended || g.pending != nil {
		return false, false
	}
	g.pending = o
	return true, false
}

// take claims the pending offer, if any.
func (g *spliceGate) take() *spliceOffer {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.pending
	g.pending = nil
	return o
}

// withdraw removes o if it is still pending; false means a claim raced the
// withdrawal and the offerer must wait for the resolution instead.
func (g *spliceGate) withdraw(o *spliceOffer) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending == o {
		g.pending = nil
		return true
	}
	return false
}

// suspend bounces offers while the upstream goroutine ingests a gap fetch
// through the pooled path — a parked successor would deadlock the window's
// back-pressure. resume re-opens the gate.
func (g *spliceGate) suspend() { g.setSuspended(true) }
func (g *spliceGate) resume()  { g.setSuspended(false) }

func (g *spliceGate) setSuspended(v bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.suspended = v
}

// close declines the pending offer (permanently) and every future one: the
// stream is over, or the upstream lifecycle ended.
func (g *spliceGate) close() {
	g.mu.Lock()
	o := g.pending
	g.pending = nil
	g.closed = true
	g.mu.Unlock()
	if o != nil {
		o.resp <- spliceResult{noRetry: true}
	}
}

// resolveTransient declines the pending offer without closing the gate
// (used before a gap fetch: the successor drains pooled, then offers again).
func (g *spliceGate) resolveTransient() {
	g.mu.Lock()
	o := g.pending
	g.pending = nil
	g.mu.Unlock()
	if o != nil {
		o.resp <- spliceResult{}
	}
}

// spliceEligible decides at construction time whether this node may ever
// relay through the kernel: a chain relay — not the sender, not a tree
// relay (k children would need a k-way tee), not on the udp plane (no relay
// chain), and no §V drain-rate measurement (exclusion times the user-space
// writes a kernel relay bypasses).
func spliceEligible(cfg *NodeConfig, opts *Options) bool {
	k, kerr := TreeArity(cfg.Plan.Topology)
	return cfg.Index > 0 && opts.MinThroughput == 0 &&
		cfg.Plan.Transport != TransportUDP && kerr == nil && k == 1
}

// closeSpliceGate shuts the gate down, if the node has one.
func (n *Node) closeSpliceGate() {
	if n.splice != nil {
		n.splice.close()
	}
}

// offerReady reports whether a downstream sender at off is close enough to
// the store head to offer a span: at most one write batch (and half the
// window) behind, a backlog the engaging side first sends from the window.
func (n *Node) offerReady(off uint64) bool {
	b := n.opts.MaxBatchBytes
	if half := n.opts.WindowChunks * n.opts.ChunkSize / 2; b > half {
		b = half
	}
	return off+uint64(b) >= n.st.Head()
}

// offerSplice posts an offer at off on the successor wire w (whose writer
// is out) and parks until it resolves. A sender behind the store head
// waits at most a poll interval for the claim and then drains its backlog
// through the pooled path, so a quiet upstream does not hold it back; a
// caught-up sender waits for the next inbound frame. It returns the bytes
// delivered during the span (0 on a decline), the resolution, and a
// connection-level error: a non-nil error means the successor connection
// is lost and must be classified like any failed write.
func (n *Node) offerSplice(ctx context.Context, off uint64, w *wire, out *stallWriter) (uint64, spliceResult, error) {
	o := &spliceOffer{off: off, w: w, out: out, resp: make(chan spliceResult, 1), done: make(chan struct{})}
	if ok, noRetry := n.splice.post(o); !ok {
		return 0, spliceResult{noRetry: noRetry}, nil
	}
	// An upstream already parked on a full window would never reach the
	// next frame to claim this offer: wake it, so its back-pressure hook
	// declines the offer and this sender drains instead.
	n.ws.wake()
	var expired <-chan time.Time
	if off < n.st.Head() {
		t := n.clk.NewTimer(n.opts.pollInterval())
		defer t.Stop()
		expired = t.C()
	}
	var res spliceResult
	select {
	case res = <-o.resp:
	case <-ctx.Done(): // the caller re-checks ctx
		res = n.withdrawOffer(o)
	case <-expired:
		res = n.withdrawOffer(o)
	}
	if !res.engaged {
		return 0, res, nil
	}
	<-o.done
	return o.moved, res, o.err
}

// withdrawOffer takes back a pending offer as a transient decline. If a
// claim raced the withdrawal it returns the owed resolution instead; an
// engaged one means the upstream side owns the connection until the span
// ends.
func (n *Node) withdrawOffer(o *spliceOffer) spliceResult {
	if n.splice.withdraw(o) {
		return spliceResult{}
	}
	return <-o.resp
}

// engage answers a claimed offer on the upstream connection w: it opens
// the tee relay, brings a lagging successor up to the store head from the
// window, and reports whether the span starts.
func (n *Node) engage(o *spliceOffer, w *wire) bool {
	head := n.st.Head()
	switch {
	case n.spliceBroken.Load() || !transport.CanSplice(w.conn, o.out.conn):
		o.resp <- spliceResult{noRetry: true}
		return false
	case o.off > head:
		o.resp <- spliceResult{}
		return false
	}
	relay, err := o.out.conn.(transport.Splicer).TeeFrom(w.conn)
	if err != nil {
		o.resp <- spliceResult{noRetry: true}
		return false
	}
	o.relay = relay
	o.resp <- spliceResult{engaged: true}
	if err := n.sendBacklog(o, head); err != nil {
		o.err = err
		o.finish()
		return false
	}
	return true
}

// sendBacklog writes the window's chunks [o.off, head) to the successor of
// an engaged offer, as the pooled path would have.
func (n *Node) sendBacklog(o *spliceOffer, head uint64) error {
	var batch []*chunk
	for o.off+o.moved < head {
		batch = batch[:0]
		total := 0
		for len(batch) < maxBatchChunks && o.off+o.moved+uint64(total) < head &&
			(len(batch) == 0 || total+n.opts.ChunkSize <= n.opts.MaxBatchBytes) {
			c, ok := n.st.TryChunkAt(o.off + o.moved + uint64(total))
			if !ok {
				break
			}
			batch = append(batch, c)
			total += len(c.bytes())
		}
		if len(batch) == 0 {
			return fmt.Errorf("kascade: internal: backlog at %d not in the window", o.off+o.moved)
		}
		err := o.w.writeDataBatch(batch)
		for _, c := range batch {
			c.release()
		}
		if err != nil {
			return err
		}
		o.moved += uint64(total)
	}
	return nil
}

// teeFrame relays one DATA frame of the given payload size from the
// upstream wire to the engaged successor and returns the payload in a pool
// chunk (the caller owns the reference). The header and any payload prefix
// already in the read buffer are written from user space; the rest moves
// through the kernel relay, which fills the chunk on the way.
//
// A non-nil down means the successor failed: the frame was still read
// whole from upstream, so c is complete and only the downstream connection
// is lost. A non-nil err means the upstream connection broke mid-frame, and
// c is nil.
func (n *Node) teeFrame(w *wire, o *spliceOffer, size int) (c *chunk, down, err error) {
	c = n.pool.get(size)
	p := c.bytes()
	k := w.br.Buffered()
	if k > size {
		k = size
	}
	if err := w.readFull(p[:k]); err != nil {
		c.release()
		return nil, nil, err
	}
	o.hdr[0] = byte(MsgData)
	binary.BigEndian.PutUint32(o.hdr[1:], uint32(size))
	iov := [2][]byte{o.hdr[:], p[:k]}
	if _, down = o.out.WriteBuffers(iov[:]); down != nil {
		if err := w.readFull(p[k:]); err != nil {
			c.release()
			return nil, nil, err
		}
		return c, down, nil
	}
	if k == size {
		return c, nil, nil
	}
	m, down, err := o.out.tee(o.relay, p[k:])
	if err == nil && down != nil {
		err = o.relay.Salvage(p[k+m:])
	}
	if err != nil {
		c.release()
		return nil, nil, err
	}
	return c, down, nil
}
