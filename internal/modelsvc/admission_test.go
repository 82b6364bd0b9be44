package modelsvc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ml4db/internal/obs"
)

// TestSubmitBoundaryTable pins the admission contract at the queue boundary
// for a range of capacities: of 2·MaxQueue+1 requests offered before a drain,
// Submit accepts exactly the first MaxQueue, every one past capacity returns
// ErrQueueFull with a nil ticket and is counted once in
// modelsvc.serve.rejected, and every accepted ticket is served by the next
// Flush.
func TestSubmitBoundaryTable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxQueue int
	}{
		{"capacity 1", 1},
		{"capacity 2", 2},
		{"capacity 3", 3},
		{"capacity 7", 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv := NewServer(Single{Deployment{Version: 1, Model: versionPredictor{version: 1}}},
				ServerOptions{MaxQueue: tc.maxQueue, MaxBatch: 2, Metrics: reg})
			var tickets []*Ticket
			for i := 0; i < tc.maxQueue; i++ {
				tk, err := srv.Submit([]float64{float64(i)})
				if err != nil {
					t.Fatalf("Submit %d/%d: %v", i+1, tc.maxQueue, err)
				}
				tickets = append(tickets, tk)
			}
			excess := tc.maxQueue + 1
			for i := 0; i < excess; i++ {
				tk, err := srv.Submit([]float64{-1})
				if !errors.Is(err, ErrQueueFull) {
					t.Fatalf("Submit %d past capacity: err = %v, want ErrQueueFull", i+1, err)
				}
				if tk != nil {
					t.Fatalf("Submit %d past capacity returned a non-nil ticket", i+1)
				}
			}
			if got := reg.Counter("modelsvc.serve.rejected").Value(); got != int64(excess) {
				t.Fatalf("rejected counter = %d, want %d", got, excess)
			}
			if got := srv.QueueDepth(); got != tc.maxQueue {
				t.Fatalf("QueueDepth = %d, want %d (rejection must not consume a slot)", got, tc.maxQueue)
			}
			if served := srv.Flush(); served != tc.maxQueue {
				t.Fatalf("Flush served %d, want %d", served, tc.maxQueue)
			}
			for i, tk := range tickets {
				if val, version := tk.Wait(); version != 1 || val != 1 {
					t.Fatalf("ticket %d: (val, version) = (%v, %d), want (1, 1)", i, val, version)
				}
			}
			// The drain frees capacity: admission recovers immediately.
			if _, err := srv.Submit([]float64{0}); err != nil {
				t.Fatalf("Submit after drain: %v", err)
			}
		})
	}
}

// TestAdmissionBoundaryUnderRace races submitters against flushers on a
// tiny queue so admissions constantly land exactly at the capacity boundary.
// The contract under test: every Submit either returns ErrQueueFull, or
// returns a ticket that a later Flush resolves — never a silently-dropped
// ticket whose Wait hangs forever. Run under -race this also proves the
// queue bookkeeping itself is race-free.
func TestAdmissionBoundaryUnderRace(t *testing.T) {
	srv := NewServer(Single{Deployment{Version: 1, Model: versionPredictor{version: 1}}},
		ServerOptions{MaxQueue: 4, MaxBatch: 3})

	const submitters = 8
	const perSubmitter = 500
	var accepted, rejected atomic.Int64
	ticketCh := make(chan *Ticket, submitters*perSubmitter)
	badErr := make(chan string, submitters)

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				tk, err := srv.Submit([]float64{float64(g*perSubmitter + i)})
				switch {
				case err == nil:
					accepted.Add(1)
					ticketCh <- tk
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
					if tk != nil {
						badErr <- "ErrQueueFull with non-nil ticket"
						return
					}
				default:
					badErr <- "unexpected Submit error: " + err.Error()
					return
				}
				// Half the submitters also flush, keeping the queue hovering
				// around the boundary rather than saturating instantly.
				if g%2 == 0 {
					srv.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	close(ticketCh)
	close(badErr)
	for msg := range badErr {
		t.Fatal(msg)
	}

	// Final drain, then every accepted ticket must resolve. A hung Wait here
	// is exactly the dropped-ticket bug this test exists to catch.
	srv.Flush()
	var badResolution atomic.Bool
	resolved := make(chan struct{})
	go func() {
		for tk := range ticketCh {
			if val, version := tk.Wait(); version != 1 || val != 1 {
				badResolution.Store(true)
			}
		}
		close(resolved)
	}()
	select {
	case <-resolved:
	case <-time.After(30 * time.Second):
		t.Fatal("accepted ticket never resolved: silently dropped at the admission boundary")
	}
	if badResolution.Load() {
		t.Error("a ticket resolved with a wrong value or version")
	}

	if got := srv.QueueDepth(); got != 0 {
		t.Errorf("queue not drained after final Flush: %d pending", got)
	}
	total := accepted.Load() + rejected.Load()
	if total != submitters*perSubmitter {
		t.Errorf("accepted %d + rejected %d = %d, want %d (every Submit accounted for)",
			accepted.Load(), rejected.Load(), total, submitters*perSubmitter)
	}
	if accepted.Load() == 0 {
		t.Error("no Submit was ever accepted")
	}
}
