package medici

import (
	"context"
	"errors"
	"net"
	"os"
	"time"
)

// cancelOnDone arms a watcher that force-fails all I/O on conn the moment
// ctx is canceled, by moving the connection deadline into the past. The
// returned stop function must be called once the caller is finished with
// the connection; it releases the watcher goroutine.
//
// This is the standard trick for making blocking net.Conn reads/writes
// honor context cancellation without switching to non-blocking I/O: a
// past deadline wakes any in-flight Read/Write with a timeout error.
func cancelOnDone(ctx context.Context, conn net.Conn) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	stopped := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			conn.SetDeadline(time.Now())
		case <-stopped:
		}
	}()
	return func() { close(stopped) }
}

// ctxIOErr maps an I/O error that may have been induced by cancelOnDone
// back onto the context's error, so callers see context.Canceled /
// context.DeadlineExceeded instead of a raw "i/o timeout".
//
// A socket armed with the context's own deadline can time out before the
// context's timer has marked ctx.Err(): the netpoller and the timer race
// for the same instant. A deadline error that arrives at or after the
// context's deadline is therefore the context expiring, whether or not
// ctx.Err() is set yet.
func ctxIOErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		if deadline, ok := ctx.Deadline(); ok && !time.Now().Before(deadline) {
			return context.DeadlineExceeded
		}
	}
	return err
}
