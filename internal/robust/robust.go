// Package robust is the fault-isolation layer of the campaign engine.
// Long fuzzing campaigns (the paper's evaluation runs 600 missions per
// grid) must survive individual mission failures: a diverging
// simulation, a hung search, or a panicking fuzzer must degrade into
// an errored mission outcome, never abort the campaign or kill the
// process.
//
// The package provides a small error taxonomy (ErrDiverged,
// ErrDeadline, ErrPanic plus transient/permanent classification),
// Guard (panic → error with captured stack), Call (per-call deadline
// enforcement) and Retry (capped exponential backoff for transient
// failures). It deliberately depends on nothing but the standard
// library so every layer — sim, fuzz, experiments, cmds — can use it.
package robust

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// Sentinel errors of the campaign engine's failure taxonomy. Wrap them
// with fmt.Errorf("...: %w", Err...) to add context; test with
// errors.Is.
var (
	// ErrDiverged reports a simulation whose state left the realm of
	// finite numbers: its trajectory is garbage and must not be
	// aggregated.
	ErrDiverged = errors.New("robust: simulation diverged")
	// ErrDeadline reports a call that exceeded its per-mission
	// deadline. Deadline misses are classified transient: they depend
	// on machine load, not only on the input.
	ErrDeadline = errors.New("robust: deadline exceeded")
	// ErrPanic reports a recovered worker panic. Panics are classified
	// permanent: replaying the same input would panic again.
	ErrPanic = errors.New("robust: recovered panic")
)

// PanicError is the error Guard builds from a recovered panic. It
// wraps ErrPanic and carries the recovered value and the goroutine
// stack at the point of the panic.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error. The stack is kept out of the message so the
// message stays deterministic and table-friendly; read Stack for
// debugging.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap makes errors.Is(err, ErrPanic) true.
func (e *PanicError) Unwrap() error { return ErrPanic }

// classified marks an error as transient or permanent, overriding the
// default classification.
type classified struct {
	err       error
	transient bool
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// Transient marks err as retryable: Retry will attempt it again.
// Returns nil for a nil err.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, transient: true}
}

// Permanent marks err as not retryable, overriding any transient
// classification further down the chain. Returns nil for a nil err.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, transient: false}
}

// IsTransient reports whether err is worth retrying. Explicit
// Transient/Permanent marks win (outermost first); otherwise only
// deadline misses are transient — every other failure (divergence,
// panics, validation errors) is assumed deterministic.
func IsTransient(err error) bool {
	var c *classified
	if errors.As(err, &c) {
		return c.transient
	}
	return errors.Is(err, ErrDeadline)
}

// Guard runs fn, converting a panic into a *PanicError so one bad
// worker cannot take down the whole campaign process.
func Guard[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Call runs fn under Guard in its own goroutine and waits for it to
// finish, for the timeout to expire, or for ctx to be cancelled. A
// timeout of 0 disables the deadline. On deadline the returned error
// wraps ErrDeadline; on cancellation it is ctx.Err().
//
// fn itself is not interruptible: on deadline or cancellation its
// goroutine is abandoned and runs to completion in the background
// (mirroring how a hung simulator cannot be stopped, only given up
// on). Its result is discarded.
func Call[T any](ctx context.Context, timeout time.Duration, fn func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := Guard(fn)
		ch <- outcome{v, err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		if timeout > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return zero, fmt.Errorf("after %v: %w", timeout, ErrDeadline)
		}
		return zero, ctx.Err()
	}
}

// Policy caps Retry's exponential backoff.
type Policy struct {
	// MaxAttempts bounds the total number of attempts (first try
	// included). Values below 1 mean a single attempt, i.e. no retry.
	MaxAttempts int
	// BaseDelay is the sleep before the first retry; it doubles per
	// retry. 0 retries immediately.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means uncapped.
	MaxDelay time.Duration
}

// DefaultPolicy returns the campaign engine's default: three attempts
// with 100ms base backoff capped at 2s.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// backoff returns the sleep before retry number n (1-based).
func (p Policy) backoff(n int) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d < p.BaseDelay { // overflow
		d = p.MaxDelay
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// Retry runs fn until it succeeds, fails permanently, exhausts the
// policy's attempts, or ctx is cancelled. It returns fn's last result
// alongside the number of attempts made. Only errors for which
// IsTransient holds are retried.
func Retry[T any](ctx context.Context, p Policy, fn func(context.Context) (T, error)) (v T, attempts int, err error) {
	maxAttempts := p.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for {
		attempts++
		v, err = fn(ctx)
		if err == nil || attempts >= maxAttempts || !IsTransient(err) {
			return v, attempts, err
		}
		if d := p.backoff(attempts); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return v, attempts, ctx.Err()
			}
		} else if ctx.Err() != nil {
			return v, attempts, ctx.Err()
		}
	}
}
