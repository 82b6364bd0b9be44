package obs

import (
	"bytes"
	"sync"
	"testing"
)

type testEvent struct {
	Seq int64
	V   float64
}

var testEventSchema = NewSchema("event",
	Int("seq", func(e testEvent) int64 { return e.Seq }),
	Milli("v", func(e testEvent) float64 { return e.V }),
)

// TestLedgerWrapAround overfills ledgers of several capacities — MaxEvents
// is the one every event ring in the module runs at — and checks that each
// projection of the ledger agrees on what was retained: the snapshot, the
// JSONL section, and the view's row count and rows.
func TestLedgerWrapAround(t *testing.T) {
	for _, max := range []int{1, 3, MaxEvents} {
		l := NewLedger(max, func(e *testEvent, n int64) { e.Seq = n + 1 })
		total := max + 3
		for i := 1; i <= total; i++ {
			if got := l.Append(testEvent{V: float64(i) / 2}); got.Seq != int64(i) {
				t.Fatalf("max=%d: append %d stamped Seq %d", max, i, got.Seq)
			}
		}
		snap := l.Snapshot()
		if len(snap) != max || l.Len() != max {
			t.Fatalf("max=%d: retained %d (Len %d), want %d", max, len(snap), l.Len(), max)
		}
		for i, e := range snap {
			if want := int64(total - max + i + 1); e.Seq != want || e.V != float64(want)/2 {
				t.Errorf("max=%d: snapshot[%d] = %+v, want Seq %d (newest %d, in order)", max, i, e, want, max)
			}
		}

		var buf bytes.Buffer
		if err := testEventSchema.WriteJSONL(&buf, snap...); err != nil {
			t.Fatal(err)
		}
		format := Format{Name: "events", Lines: []LineSpec{testEventSchema.Line("")}}
		if n, err := format.Validate(&buf); err != nil || n != max {
			t.Errorf("max=%d: JSONL section has %d lines (%v), want %d", max, n, err, max)
		}
		view := testEventSchema.View(l.Len, l.Snapshot)
		rows := view.VirtualRows()
		if view.VirtualNumRows() != max || len(rows) != max {
			t.Fatalf("max=%d: view reports %d rows and returns %d, want %d", max, view.VirtualNumRows(), len(rows), max)
		}
		if first := rows[0]; first[0] != 4 || first[1] != 2000 {
			t.Errorf("max=%d: first view row = %v, want [4 2000] (seq, v_milli)", max, first)
		}
	}
}

// TestLedgerConcurrentAppend: sequence numbers stay dense and snapshots
// ordered when several goroutines append at once.
func TestLedgerConcurrentAppend(t *testing.T) {
	l := NewLedger(64, func(e *testEvent, n int64) { e.Seq = n })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(testEvent{})
				_ = l.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := l.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("retained %d, want 64", len(snap))
	}
	for i, e := range snap {
		if want := int64(800 - 64 + i); e.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}
