package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// ErrStopped is returned by sweeps that stopped early because a drain was
// requested (first SIGINT/SIGTERM, or a test-driven stop). Cells finished
// before the drain are flushed to the result store, so a rerun with -resume
// picks up where the sweep left off. Pool.ForEach treats it as "stop
// dispatching" rather than "cancel everything".
var ErrStopped = errors.New("experiment: sweep stopped early (drained); rerun with -resume to continue")

// drainFlag is the raisable stop request carried through a context.
type drainFlag struct{ raised atomic.Bool }

type drainKeyType struct{}

var drainKey drainKeyType

// WithDrain returns a context carrying a drain flag plus the function
// that raises it. Cells that start after the flag is raised fail fast
// with ErrStopped; cells already in flight finish and flush normally.
func WithDrain(ctx context.Context) (context.Context, func()) {
	f := &drainFlag{}
	return context.WithValue(ctx, drainKey, f), func() { f.raised.Store(true) }
}

// Draining reports whether ctx carries a raised drain flag.
func Draining(ctx context.Context) bool {
	f, ok := ctx.Value(drainKey).(*drainFlag)
	return ok && f.raised.Load()
}

// NotifyShutdown installs the shutdown policy for long sweeps: the first
// SIGINT/SIGTERM raises the drain flag — in-flight cells finish, their
// results are stored, and the sweep returns ErrStopped — while a
// second signal cancels the context outright. Progress notes go to w
// (nil silences them). The returned stop function releases the signal
// handler and cancels the context; defer it.
func NotifyShutdown(parent context.Context, w io.Writer) (context.Context, context.CancelFunc) {
	ctx, drain := WithDrain(parent)
	ctx, cancel := context.WithCancel(ctx)
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer signal.Stop(sig)
		select {
		case <-ctx.Done():
			return
		case s := <-sig:
			if w != nil {
				fmt.Fprintf(w, "\n%v: draining — in-flight cells will finish and be stored (signal again to abort)\n", s)
			}
			drain()
		}
		select {
		case <-ctx.Done():
		case s := <-sig:
			if w != nil {
				fmt.Fprintf(w, "\n%v: aborting now\n", s)
			}
			cancel()
		}
	}()
	return ctx, func() {
		cancel()
		signal.Stop(sig)
	}
}
