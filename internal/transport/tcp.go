package transport

import (
	"errors"
	"io"
	"net"
	"syscall"
	"time"
)

// TCP is the real-network backend: Dial and Listen map directly to the
// standard library's TCP stack. The CLI and the loopback integration tests
// use it; the protocol engines stay byte-for-byte identical between TCP
// and the in-memory fabric.
type TCP struct{}

func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l}, nil
}

func (TCP) Dial(addr string, timeout time.Duration) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		if errors.Is(err, syscall.ECONNREFUSED) {
			return nil, errRefusedTCP{err}
		}
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// The pipeline forwards small protocol frames interleaved with
		// bulk data; disabling Nagle keeps control latency low.
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{c: c}, nil
}

// errRefusedTCP lets errors.Is(err, ErrRefused) hold for TCP refusals.
type errRefusedTCP struct{ err error }

func (e errRefusedTCP) Error() string        { return e.err.Error() }
func (e errRefusedTCP) Unwrap() error        { return e.err }
func (e errRefusedTCP) Is(target error) bool { return target == ErrRefused }

type tcpListener struct{ l net.Listener }

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c}, nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

type tcpConn struct {
	c  net.Conn
	nb net.Buffers // WriteBuffers scratch: a stack net.Buffers escapes per call
}

func (t *tcpConn) Read(p []byte) (int, error) {
	n, err := t.c.Read(p)
	return n, mapTCPErr(err)
}

func (t *tcpConn) Write(p []byte) (int, error) {
	n, err := t.c.Write(p)
	return n, mapTCPErr(err)
}

// WriteBuffers sends all slices with a single writev when the kernel path
// allows it, collapsing the frame-header + payload pairs of the broadcast
// hot path into one syscall. net.Buffers consumes its receiver, so bufs is
// modified as documented on transport.BuffersWriter.
func (t *tcpConn) WriteBuffers(bufs [][]byte) (int64, error) {
	t.nb = bufs // shares bufs' backing array, so consumption shows through
	n, err := t.nb.WriteTo(t.c)
	t.nb = nil
	return n, mapTCPErr(err)
}

func (t *tcpConn) Close() error                        { return t.c.Close() }
func (t *tcpConn) SetDeadline(tm time.Time) error      { return t.c.SetDeadline(tm) }
func (t *tcpConn) SetReadDeadline(tm time.Time) error  { return t.c.SetReadDeadline(tm) }
func (t *tcpConn) SetWriteDeadline(tm time.Time) error { return t.c.SetWriteDeadline(tm) }
func (t *tcpConn) LocalAddr() string                   { return t.c.LocalAddr().String() }
func (t *tcpConn) RemoteAddr() string                  { return t.c.RemoteAddr().String() }

// mapTCPErr folds the platform error zoo into the transport sentinels while
// preserving the original error text via wrapping.
func mapTCPErr(err error) error {
	switch {
	case err == nil, err == io.EOF:
		return err
	case errors.Is(err, net.ErrClosed):
		return wrapped{err, ErrClosed}
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE):
		return wrapped{err, ErrReset}
	default:
		return err
	}
}

type wrapped struct {
	err error
	as  error
}

func (w wrapped) Error() string        { return w.err.Error() }
func (w wrapped) Unwrap() error        { return w.err }
func (w wrapped) Is(target error) bool { return target == w.as }
