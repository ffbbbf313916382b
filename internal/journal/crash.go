package journal

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrCrashInjected is what an armed CrashPlan's default Fire returns: the
// writer stops mid-boundary, leaving the on-disk state a real crash at
// that point would leave, and refuses further appends.
var ErrCrashInjected = errors.New("journal: injected crash")

// CrashPoint names a write boundary the crash-injection harness can fire
// at. Together the points cover every distinct on-disk state an append
// can die in.
type CrashPoint string

const (
	// CrashBeforeAppend dies before any byte of the record reaches the
	// file: the journal must recover with the record absent.
	CrashBeforeAppend CrashPoint = "before-append"
	// CrashTornWrite dies after a prefix of the framed record reached the
	// file: recovery must truncate the torn frame away.
	CrashTornWrite CrashPoint = "torn-write"
	// CrashBeforeSync dies with the full frame written but not fsync'd:
	// recovery sees either the whole record or a torn artifact, never a
	// corrupt accepted one.
	CrashBeforeSync CrashPoint = "before-sync"
)

// CrashPoints lists every injectable boundary (tests iterate it).
func CrashPoints() []CrashPoint {
	return []CrashPoint{CrashBeforeAppend, CrashTornWrite, CrashBeforeSync}
}

// CrashPlan arms one injected crash: the first time the writer reaches
// Point with at least AfterAppends records already appended, it leaves the
// boundary's on-disk state behind and fires.
type CrashPlan struct {
	Point CrashPoint
	// AfterAppends is the number of successful appends before the plan
	// may fire (0 = the very first append).
	AfterAppends int
	// Fire is invoked at the boundary; nil returns ErrCrashInjected (the
	// in-process harness). The CLIs install os.Exit so the injected crash
	// is a real process death mid-write.
	Fire func() error

	fired bool
}

// ParseCrashPlan parses the CLI form "<point>:<n>", e.g. "torn-write:3"
// (die with a torn frame once 3 records are journaled).
func ParseCrashPlan(s string) (*CrashPlan, error) {
	point, after, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("journal: bad crash plan %q (want <point>:<n>)", s)
	}
	n, err := strconv.Atoi(after)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("journal: bad crash plan count %q", after)
	}
	for _, p := range CrashPoints() {
		if CrashPoint(point) == p {
			return &CrashPlan{Point: p, AfterAppends: n}, nil
		}
	}
	return nil, fmt.Errorf("journal: unknown crash point %q (choose from %v)", point, CrashPoints())
}

// crashArmed reports whether the plan will fire at this boundary now.
// Caller holds l.mu.
func (l *Log) crashArmed(p CrashPoint) bool {
	c := l.opts.Crash
	return c != nil && !c.fired && c.Point == p && l.appends >= c.AfterAppends
}

// crash fires the armed plan at boundary p: the log is poisoned (a dead
// process cannot append) and Fire decides whether to return
// (ErrCrashInjected, in-process tests) or exit (the CLIs). Caller holds
// l.mu.
func (l *Log) crash(p CrashPoint) error {
	if !l.crashArmed(p) {
		return nil
	}
	l.opts.Crash.fired = true
	l.poisoned = true
	if f := l.opts.Crash.Fire; f != nil {
		return f()
	}
	return ErrCrashInjected
}
