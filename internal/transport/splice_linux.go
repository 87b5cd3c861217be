//go:build linux

package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

const (
	spliceNonblock = 0x2     // SPLICE_F_NONBLOCK
	fSetPipeSize   = 0x407   // F_SETPIPE_SZ (F_LINUX_SPECIFIC_BASE + 7)
	teePipeSize    = 1 << 20 // asked capacity of each relay pipe: one default chunk per round
)

// pipeMaxSize is the unprivileged pipe capacity ceiling
// (/proc/sys/fs/pipe-max-size); 0 when unknown.
var pipeMaxSize = sync.OnceValue(func() int {
	b, err := os.ReadFile("/proc/sys/fs/pipe-max-size")
	if err != nil {
		return 0
	}
	v, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return 0
	}
	return v
})

// setPipeSize resizes a pipe with F_SETPIPE_SZ. It is a variable so tests
// can stand in a kernel that refuses the resize.
var setPipeSize = func(fd, size int) error {
	_, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fSetPipeSize, uintptr(size))
	if e != 0 {
		return e
	}
	return nil
}

// CanSpliceFrom reports whether the kernel relay engages for src: both
// endpoints must unwrap to plain *net.TCPConn, since splice(2) needs the
// raw socket descriptors.
func (t *tcpConn) CanSpliceFrom(src Conn) bool {
	if _, ok := t.c.(*net.TCPConn); !ok {
		return false
	}
	sc, ok := src.(*tcpConn)
	if !ok {
		return false
	}
	_, ok = sc.c.(*net.TCPConn)
	return ok
}

// TeeFrom opens a tee relay from src into this connection.
func (t *tcpConn) TeeFrom(src Conn) (TeeRelay, error) {
	if !t.CanSpliceFrom(src) {
		return nil, fmt.Errorf("transport: a tee relay needs plain TCP connections at both ends")
	}
	srcRaw, err := src.(*tcpConn).c.(*net.TCPConn).SyscallConn()
	if err != nil {
		return nil, err
	}
	dstRaw, err := t.c.(*net.TCPConn).SyscallConn()
	if err != nil {
		return nil, err
	}
	r := &teeRelay{src: src, srcRaw: srcRaw, dstRaw: dstRaw, a: [2]int{-1, -1}, b: [2]int{-1, -1}}
	if err := r.open(); err != nil {
		r.Close()
		return nil, err
	}
	r.pullFn, r.pushFn = r.pull, r.push
	return r, nil
}

// teeRelay moves each round of bytes source socket → pipe A (splice), then
// duplicates A into pipe B (tee) and reads B into the caller's buffer, and
// finally drains A into the destination socket (splice). The socket ends
// run through syscall.RawConn, so the netpoller parks the goroutine on
// EAGAIN and both connections' deadlines apply.
//
// Pipe A is only ever refilled once empty; at any moment it holds unsent
// bytes (already in the caller's buffer) at its head, followed by untee
// bytes not yet copied out. tee(2) always copies from the head of a pipe,
// so untee bytes are only duplicated once nothing precedes them.
type teeRelay struct {
	src            Conn
	srcRaw, dstRaw syscall.RawConn
	a, b           [2]int // pipe fds: [0] read end, [1] write end

	unsent int
	untee  int
	spent  error

	// Arguments and results of the raw-conn callbacks. They live here so
	// the bound method values are allocated once per relay, not per call.
	want           int
	moved          int
	errno          error
	pullFn, pushFn func(uintptr) bool
}

func (r *teeRelay) open() error {
	if err := syscall.Pipe2(r.a[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		r.a = [2]int{-1, -1}
		return os.NewSyscallError("pipe2", err)
	}
	if err := syscall.Pipe2(r.b[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		r.b = [2]int{-1, -1}
		return os.NewSyscallError("pipe2", err)
	}
	size := teePipeSize
	if max := pipeMaxSize(); max > 0 && size > max {
		size = max
	}
	// Pipes of unequal capacity stay correct (a short tee is followed by
	// a matching short drain), so a refused resize keeps the default.
	for _, fd := range []int{r.a[1], r.b[1]} {
		if err := setPipeSize(fd, size); err != nil && err != syscall.EPERM {
			return os.NewSyscallError("fcntl F_SETPIPE_SZ", err)
		}
	}
	return nil
}

func (r *teeRelay) Tee(p []byte) (int, error) {
	if r.spent != nil {
		return 0, r.spent
	}
	if len(p) < r.unsent+r.untee {
		return 0, errors.New("transport: tee resumed with a shorter buffer than it holds")
	}
	filled := r.unsent // p[:unsent] is already filled by the interrupted call
	delivered := 0
	for delivered < len(p) {
		if r.unsent == 0 {
			if r.untee == 0 {
				if err := r.pullIn(len(p) - filled); err != nil {
					r.spent = err
					return delivered, err
				}
			}
			t, err := r.copyOut(p[filled : filled+r.untee])
			if err != nil {
				r.spent = err
				return delivered, err
			}
			filled += t
		}
		r.moved, r.errno = 0, nil
		err := r.dstRaw.Write(r.pushFn)
		r.unsent -= r.moved
		delivered += r.moved
		if err == nil && r.errno != nil {
			err = os.NewSyscallError("splice", r.errno)
		}
		if err != nil {
			return delivered, &TeeWriteError{Err: mapTCPErr(err)}
		}
	}
	return delivered, nil
}

// pullIn splices up to max bytes of the source into the empty pipe A.
func (r *teeRelay) pullIn(max int) error {
	r.want, r.moved, r.errno = max, 0, nil
	if err := r.srcRaw.Read(r.pullFn); err != nil {
		return mapTCPErr(err)
	}
	if r.errno != nil {
		return mapTCPErr(os.NewSyscallError("splice", r.errno))
	}
	if r.moved == 0 {
		return io.ErrUnexpectedEOF // source EOF mid-transfer
	}
	r.untee = r.moved
	return nil
}

// pull is the source-readiness callback: pipe A is empty, so EAGAIN can
// only mean the socket has nothing to read yet.
func (r *teeRelay) pull(fd uintptr) bool {
	for {
		n, err := syscall.Splice(int(fd), nil, r.a[1], nil, r.want, spliceNonblock)
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case nil:
			r.moved = int(n)
		default:
			r.errno = err
		}
		return true
	}
}

// push is the destination-readiness callback: it drains the unsent head of
// pipe A into the socket, waiting for writability on EAGAIN.
func (r *teeRelay) push(fd uintptr) bool {
	for r.moved < r.unsent {
		n, err := syscall.Splice(r.a[0], nil, int(fd), nil, r.unsent-r.moved, spliceNonblock)
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case nil:
			r.moved += int(n)
		default:
			r.errno = err
			return true
		}
	}
	return true
}

// copyOut duplicates the untee bytes at the head of pipe A into pipe B and
// reads them into q, the matching slice of the caller's buffer. Pipe B is
// empty on entry, so tee only comes up short when B is the smaller pipe.
func (r *teeRelay) copyOut(q []byte) (int, error) {
	var t int
	for {
		n, err := syscall.Tee(r.a[0], r.b[1], len(q), spliceNonblock)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, os.NewSyscallError("tee", err)
		}
		if n <= 0 {
			return 0, errors.New("transport: tee moved nothing")
		}
		t = int(n)
		break
	}
	if err := readPipe(r.b[0], q[:t]); err != nil {
		return 0, err
	}
	r.untee -= t
	r.unsent = t
	return t, nil
}

func (r *teeRelay) Salvage(p []byte) error {
	if r.spent != nil {
		return r.spent
	}
	r.spent = errors.New("transport: tee relay salvaged")
	held := r.unsent + r.untee
	if len(p) < held {
		return errors.New("transport: salvage buffer shorter than the relay holds")
	}
	// Pipe A holds exactly p[:held]; its unsent head is already in p and
	// is simply read again.
	if err := readPipe(r.a[0], p[:held]); err != nil {
		return err
	}
	r.unsent, r.untee = 0, 0
	_, err := io.ReadFull(r.src, p[held:])
	return err
}

// readPipe reads exactly len(q) bytes that are already buffered in a pipe.
func readPipe(fd int, q []byte) error {
	for got := 0; got < len(q); {
		m, err := syscall.Read(fd, q[got:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return os.NewSyscallError("read", err)
		}
		if m <= 0 {
			return errors.New("transport: relay pipe drained early")
		}
		got += m
	}
	return nil
}

func (r *teeRelay) Close() error {
	for _, fd := range [...]*int{&r.a[0], &r.a[1], &r.b[0], &r.b[1]} {
		if *fd >= 0 {
			_ = syscall.Close(*fd)
			*fd = -1
		}
	}
	if r.spent == nil {
		r.spent = errors.New("transport: tee relay closed")
	}
	return nil
}
