package exec

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/plan"
)

// The executor's slab list: every intermediate column an execution builds
// comes from it, unzeroed, and goes back when Execute returns. These tests pin
// that no operator reads a position it did not write, that no result row
// aliases a slab, that a steady state allocates no column, and (under -race)
// that executions sharing one executor share the list safely.

// freeSlabs counts the slabs on e's free list.
func freeSlabs(e *Executor) (n int) {
	e.slabs.mu.Lock()
	defer e.slabs.mu.Unlock()
	for _, f := range e.slabs.free {
		n += len(f)
	}
	return n
}

// spilledTwin returns a clone of an opsFixture plan reading the spilled copies
// of big: bigdisk for a SeqScan, bigdiskix for an IndexScan.
func spilledTwin(p *plan.Node) *plan.Node {
	out := p.Clone()
	out.Walk(func(n *plan.Node) {
		switch {
		case n.TableID == 0 && n.Op == plan.OpSeqScan:
			n.TableID = 1
		case n.TableID == 0 && n.Op == plan.OpIndexScan:
			n.TableID = 3
		}
	})
	return out
}

// TestSlabsAreNeverReadBeforeWritten: an executor whose free list starts full
// of slabs holding a sentinel — and, on its second run, holding what the first
// run left — returns the rows, Counters and Actuals a fresh executor returns,
// for every opsFixture case at P = 1 and P = 3 and its spilled twin.
func TestSlabsAreNeverReadBeforeWritten(t *testing.T) {
	e, cases := opsFixture(t, 3000)
	pool := mlmath.NewPool(3)
	defer pool.Close()
	dirty := New(e.Cat)
	for k := 0; k <= 16; k++ {
		for range 3 {
			slab := make(column, 1<<k)
			for i := range slab {
				slab[i] = -0x5EED5EED
			}
			dirty.slabs.free[k] = append(dirty.slabs.free[k], slab)
			dirty.slabs.bytes += 8 << k
		}
	}
	for _, c := range cases {
		for _, parts := range []int{1, 3} {
			for _, twin := range []bool{false, true} {
				p := forcePartitions(c.plan, parts)
				if twin {
					p = spilledTwin(p)
				}
				label := fmt.Sprintf("%s P=%d spilled=%v", c.name, parts, twin)
				run := func(e *Executor) *Result {
					res, err := e.Execute(p, Options{Output: c.out, Pool: pool})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return res
				}
				fresh := New(e.Cat)
				run(fresh) // a Fetch scan's misses are those of the resident set it leaves
				want := run(fresh)
				for round := 0; round < 2; round++ {
					got := run(dirty)
					if !reflect.DeepEqual(got.Rows, want.Rows) || got.Counters != want.Counters || !reflect.DeepEqual(got.Actuals, want.Actuals) {
						t.Fatalf("%s, round %d: a reused slab changed the result:\ncounters %+v, want %+v\nactuals %+v, want %+v",
							label, round, got.Counters, want.Counters, got.Actuals, want.Actuals)
					}
				}
			}
		}
	}
}

// TestSlabsSharedByConcurrentExecutions: four goroutines execute every case on
// one executor at once; each gets the serial rows. Run under -race.
func TestSlabsSharedByConcurrentExecutions(t *testing.T) {
	e, cases := opsFixture(t, 2000)
	pool := mlmath.NewPool(2)
	defer pool.Close()
	want := make([][][]int64, len(cases))
	for i, c := range cases {
		res, err := New(e.Cat).Execute(c.plan, Options{Output: c.out})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, c := range cases {
					res, err := e.Execute(forcePartitions(c.plan, 1+(g+round)%3), Options{Output: c.out, Pool: pool})
					if err == nil && !reflect.DeepEqual(res.Rows, want[i]) {
						err = fmt.Errorf("%s: goroutine %d round %d returned other rows", c.name, g, round)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
