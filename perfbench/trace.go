package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kascade/internal/core"
)

// layer names one span kind: a boundary the benchmark's own code crosses
// when it calls into the program.
type layer uint8

const (
	lBroadcast layer = iota // root span: one broadcast, start to verified end
	lSessionStart
	lControlPrepare
	lControlStart
	lControlResult
	lJoinNegotiate
	lSourceRead
	lSinkWrite
	lTransportDial
	lTransportWrite
	lTransportRead
	nLayers
)

var layerNames = [nLayers]string{
	"broadcast", "session.start", "control.prepare", "control.start",
	"control.result", "join.negotiate", "source.read", "sink.write",
	"transport.dial", "transport.write", "transport.read",
}

// span is one timed call. Every span but a broadcast's root has that root
// as its parent; bcast is -1 when the call could not be attributed.
type span struct {
	start, end int64 // ns since the recorder's epoch
	bcast      int32
	layer      layer
}

// maxSpans bounds the in-memory span log; later spans are counted, not
// kept.
const maxSpans = 1 << 21

// roles is the number of HELLO roles the transport wrapper tells apart
// (core.RoleData..core.RoleJoin); slot 0 holds connections it could not
// classify.
const roles = int(core.RoleJoin) + 1

// ioCounters accumulates the traffic of one connection role.
type ioCounters struct {
	wBytes, wCalls, wNs atomic.Int64
	rBytes, rCalls, rNs atomic.Int64
	dials               atomic.Int64
}

// ioTotals is a snapshot of one role's ioCounters.
type ioTotals struct {
	wBytes, wCalls, wNs, rBytes, rCalls, rNs, dials int64
}

func (t ioTotals) minus(o ioTotals) ioTotals {
	return ioTotals{t.wBytes - o.wBytes, t.wCalls - o.wCalls, t.wNs - o.wNs,
		t.rBytes - o.rBytes, t.rCalls - o.rCalls, t.rNs - o.rNs, t.dials - o.dials}
}

// spanLog is one span owner's log: a connection, a sink, a source, or the
// recorder's shared log for the rarer control and session calls. Owners
// append under their own lock, so the hot paths never share one.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// recorder holds everything a traced run measures at the layer
// boundaries: spans in memory, and counters at the same boundaries.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	logs   []*spanLog
	shared *spanLog
	dialNs []int64
	sids   map[core.SessionID]int32

	spans, dropped atomic.Int64
	byRole         [roles]ioCounters
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), sids: make(map[core.SessionID]int32)}
	r.shared = r.newLog()
	return r
}

// newLog registers a span log for one owner.
func (r *recorder) newLog() *spanLog {
	l := &spanLog{}
	r.mu.Lock()
	r.logs = append(r.logs, l)
	r.mu.Unlock()
	return l
}

// io snapshots the per-role counters and the number of dials timed.
func (r *recorder) io() (out [roles]ioTotals, dials int) {
	for i := range r.byRole {
		c := &r.byRole[i]
		out[i] = ioTotals{c.wBytes.Load(), c.wCalls.Load(), c.wNs.Load(),
			c.rBytes.Load(), c.rCalls.Load(), c.rNs.Load(), c.dials.Load()}
	}
	r.mu.Lock()
	dials = len(r.dialNs)
	r.mu.Unlock()
	return out, dials
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records one span on the shared log that started at t0 and ends now.
func (r *recorder) add(l layer, bcast int32, t0 time.Time) {
	r.addTo(r.shared, l, bcast, t0, time.Now())
}

// addTo records one span on an owner's log.
func (r *recorder) addTo(log *spanLog, l layer, bcast int32, t0, t1 time.Time) {
	if r.spans.Add(1) > maxSpans {
		r.dropped.Add(1)
		return
	}
	s := span{start: r.since(t0), end: r.since(t1), bcast: bcast, layer: l}
	log.mu.Lock()
	log.spans = append(log.spans, s)
	log.mu.Unlock()
}

// allSpans gathers every owner's spans.
func (r *recorder) allSpans() []span {
	r.mu.Lock()
	logs := append([]*spanLog(nil), r.logs...)
	r.mu.Unlock()
	var out []span
	for _, l := range logs {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	return out
}

// bind attributes connections that name sid in their HELLO to a broadcast.
func (r *recorder) bind(sid core.SessionID, bcast int32) {
	r.mu.Lock()
	r.sids[sid] = bcast
	r.mu.Unlock()
}

func (r *recorder) bcastOf(sid core.SessionID) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.sids[sid]; ok {
		return b
	}
	return -1
}

func (r *recorder) dial(d time.Duration) {
	r.mu.Lock()
	r.dialNs = append(r.dialNs, int64(d))
	r.mu.Unlock()
}

// selfTimes derives each layer's self time from the span log: a span's
// duration minus the part of it its child spans cover. Only broadcast
// roots have children, so leaf layers keep their whole duration and the
// root keeps the wall time no recorded call covers.
func selfTimes(spans []span) [nLayers]time.Duration {
	var self [nLayers]time.Duration
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.layer == lBroadcast {
			continue
		}
		self[s.layer] += time.Duration(s.end - s.start)
		if s.bcast >= 0 {
			children[s.bcast] = append(children[s.bcast], s)
		}
	}
	for _, root := range spans {
		if root.layer != lBroadcast {
			continue
		}
		kids := children[root.bcast]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, cur := int64(0), root.start
		for _, k := range kids {
			s, e := max(k.start, cur), min(k.end, root.end)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		self[lBroadcast] += time.Duration(root.end - root.start - covered)
	}
	return self
}

// writeSpans dumps the span log as tab-separated lines: broadcast id,
// parent ("-" for roots, else the broadcast's root), layer, start and end
// in microseconds since the run began.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "bcast\tparent\tlayer\tstart_us\tend_us")
	for _, s := range r.allSpans() {
		parent := "-"
		if s.layer != lBroadcast {
			parent = fmt.Sprintf("b%d", s.bcast)
		}
		fmt.Fprintf(w, "b%d\t%s\t%s\t%d\t%d\n", s.bcast, parent, layerNames[s.layer], s.start/1e3, s.end/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
