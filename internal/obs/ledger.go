package obs

import "sync"

// MaxEvents bounds every event ledger (drift, model and tuning events).
const MaxEvents = 256

// Ledger is the bounded record ring behind the telemetry timelines: it
// retains the newest max records in append order and numbers every append,
// retained or not. Safe for concurrent use.
type Ledger[T any] struct {
	max   int
	stamp func(rec *T, n int64)

	mu    sync.Mutex
	recs  []T
	total int64 // records ever appended
}

// NewLedger returns a ledger retaining max records. stamp, when non-nil,
// writes a record's sequence number n (0 for the first append, counting on
// through evictions) into it; every record a caller sees has been stamped.
func NewLedger[T any](max int, stamp func(rec *T, n int64)) *Ledger[T] {
	return &Ledger[T]{max: max, stamp: stamp}
}

// Append retains rec, evicting the oldest record when full, and returns it
// stamped.
func (l *Ledger[T]) Append(rec T) T {
	l.mu.Lock()
	n := l.total
	l.total++
	l.recs = append(l.recs, rec)
	if len(l.recs) > l.max {
		// Shift instead of a circular index: max is small and snapshots
		// stay trivially ordered.
		copy(l.recs, l.recs[len(l.recs)-l.max:])
		l.recs = l.recs[:l.max]
	}
	l.mu.Unlock()
	if l.stamp != nil {
		l.stamp(&rec, n)
	}
	return rec
}

// Len returns how many records are retained.
func (l *Ledger[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Snapshot copies the retained records, oldest first. A record's sequence
// number is its position on the append timeline, so stamping the copies
// here — outside the lock, which caller-supplied code must not run under —
// yields the numbers Append returned.
func (l *Ledger[T]) Snapshot() []T {
	l.mu.Lock()
	out := append([]T(nil), l.recs...)
	first := l.total - int64(len(out))
	l.mu.Unlock()
	if l.stamp != nil {
		for i := range out {
			l.stamp(&out[i], first+int64(i))
		}
	}
	return out
}
