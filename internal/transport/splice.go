package transport

import "errors"

// Splicer is an optional Conn capability: relaying payload bytes from
// another connection into this one through the kernel while keeping one
// user-space copy of them. On Linux the TCP backend implements it with
// splice(2) and tee(2) (socket → pipe → socket, duplicated into a second
// pipe that is read into the caller's buffer); every other backend — and
// every platform without the kernel primitives — simply does not implement
// the interface, so callers stay on their buffered path. Discover the
// capability with CanSplice, never by asserting the interface alone: an
// implementation may still decline a specific source (e.g. a wrapped or
// in-memory peer).
type Splicer interface {
	// CanSpliceFrom reports whether TeeFrom(src) would take the kernel
	// path for this particular source connection.
	CanSpliceFrom(src Conn) bool
	// TeeFrom opens a tee relay from src into this connection. The relay
	// owns its kernel pipes until Close, so one relay serves any number
	// of frames.
	TeeFrom(src Conn) (TeeRelay, error)
}

// TeeRelay is an open kernel relay from a source connection into a
// destination connection. It is not safe for concurrent use, and while a
// call is in flight the caller must not read the source or write the
// destination by other means.
type TeeRelay interface {
	// Tee moves len(p) bytes from the source into the destination inside
	// the kernel and fills p with the same bytes. It returns how many of
	// them reached the destination, honouring the source's read deadline
	// and the destination's write deadline.
	//
	// A destination failure is returned as a *TeeWriteError. The source
	// stream is intact, and the relay may hold bytes the destination has
	// not taken yet: calling Tee again with p[n:] delivers them first and
	// then carries on (the resume after a write timeout), while Salvage
	// completes p[n:] without the destination. Any other error is a
	// source failure: both streams may then be torn mid-transfer and the
	// relay is spent.
	Tee(p []byte) (int, error)
	// Salvage completes a transfer whose destination was given up: after
	// Tee(p) returned n with a *TeeWriteError, Salvage(p[n:]) fills the
	// rest of the buffer from the bytes the relay still holds and then
	// from the source, so the source stream stays on the caller's frame
	// boundary. The relay is spent afterwards.
	Salvage(p []byte) error
	// Close releases the kernel pipes.
	Close() error
}

// TeeWriteError marks a TeeRelay failure on the destination side.
type TeeWriteError struct{ Err error }

func (e *TeeWriteError) Error() string { return "tee to destination: " + e.Err.Error() }
func (e *TeeWriteError) Unwrap() error { return e.Err }

// IsTeeWriteError reports whether err is a destination-side TeeRelay
// failure.
func IsTeeWriteError(err error) bool {
	var te *TeeWriteError
	return errors.As(err, &te)
}

// CanSplice reports whether payload bytes can be relayed from src to dst
// through the kernel. False on non-Linux builds, on the in-memory fabric,
// and whenever either endpoint is not a plain TCP connection.
func CanSplice(src, dst Conn) bool {
	s, ok := dst.(Splicer)
	return ok && s.CanSpliceFrom(src)
}
