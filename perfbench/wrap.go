package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"kascade/internal/core"
	"kascade/internal/transport"
)

// tracedNet wraps a transport.Network so every connection it dials or
// accepts is timed and counted by role. Traced runs hand it to
// core.NewEngine and the NetworkFor hooks; untraced runs use the bare
// network.
type tracedNet struct {
	inner transport.Network
	rec   *recorder
}

func (n tracedNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return tracedListener{l, n.rec}, nil
}

func (n tracedNet) Dial(addr string, timeout time.Duration) (transport.Conn, error) {
	t0 := time.Now()
	c, err := n.inner.Dial(addr, timeout)
	n.rec.dial(time.Since(t0))
	n.rec.add(lTransportDial, -1, t0)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: n.rec, log: n.rec.newLog(), dialed: true, bcast: -1}, nil
}

type tracedListener struct {
	transport.Listener
	rec *recorder
}

func (l tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec, log: l.rec.newLog(), bcast: -1}, nil
}

// helloLen is the length of a HELLO2 frame: type, role, index, session.
const helloLen = 14

// tracedConn classifies its connection by the HELLO frame that opens it:
// the dialer's first written bytes, or the acceptor's first read bytes.
// Until the frame is complete, traffic counts under role 0.
type tracedConn struct {
	transport.Conn
	rec    *recorder
	log    *spanLog
	dialed bool

	hello  [helloLen]byte // touched only by the goroutine carrying the HELLO
	nHello int
	role   atomic.Int32
	bcast  int32 // written before role is published, read after
}

// capture feeds the HELLO bytes seen so far; once the frame is complete
// it publishes the role (and, on the dialing side, counts the dial).
func (c *tracedConn) capture(p []byte) {
	c.nHello += copy(c.hello[c.nHello:], p)
	if c.nHello < 2 {
		return
	}
	role := int32(c.hello[1])
	switch core.MsgType(c.hello[0]) {
	case core.MsgHello:
		if c.nHello < 6 {
			return
		}
	case core.MsgHello2:
		if c.nHello < helloLen {
			return
		}
		c.bcast = c.rec.bcastOf(core.SessionID(binary.BigEndian.Uint64(c.hello[6:14])))
	default:
		role = -1
	}
	if role < 1 || int(role) >= roles {
		role = -1
	}
	if c.dialed && role > 0 {
		c.rec.byRole[role].dials.Add(1)
	}
	c.role.Store(role)
}

func (c *tracedConn) counters() (*ioCounters, int32) {
	role := c.role.Load()
	if role <= 0 {
		return &c.rec.byRole[0], -1
	}
	return &c.rec.byRole[role], c.bcast
}

func (c *tracedConn) wrote(n int64, t0 time.Time) {
	d := time.Since(t0)
	ctr, bcast := c.counters()
	ctr.wBytes.Add(n)
	ctr.wCalls.Add(1)
	ctr.wNs.Add(int64(d))
	c.rec.addTo(c.log, lTransportWrite, bcast, t0, t0.Add(d))
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.dialed && c.role.Load() == 0 {
		c.capture(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.wrote(int64(n), t0)
	return n, err
}

// WriteBuffers keeps the vectored path: the program probes its
// connections for transport.BuffersWriter.
func (c *tracedConn) WriteBuffers(bufs [][]byte) (int64, error) {
	if c.dialed && c.role.Load() == 0 {
		for _, b := range bufs {
			c.capture(b)
		}
	}
	t0 := time.Now()
	n, err := transport.WriteBuffers(c.Conn, bufs)
	c.wrote(n, t0)
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	d := time.Since(t0)
	if !c.dialed && n > 0 && c.role.Load() == 0 {
		c.capture(p[:n])
	}
	ctr, bcast := c.counters()
	ctr.rBytes.Add(int64(n))
	ctr.rCalls.Add(1)
	ctr.rNs.Add(int64(d))
	c.rec.addTo(c.log, lTransportRead, bcast, t0, t0.Add(d))
	return n, err
}
