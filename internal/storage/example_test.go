package storage_test

import (
	"fmt"
	"os"
	"path/filepath"

	"ml4db/internal/modelsvc"
	"ml4db/internal/storage"
)

// Example walks the disk-table lifecycle: create a heap file, append rows,
// scan them through a buffer pool smaller than the table, then reopen the
// file and verify the rows survived.
func Example() {
	dir, err := os.MkdirTemp("", "storage-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "orders.tbl")

	// Create a two-column table cached by a tiny 2-frame pool.
	pool := storage.NewPool(storage.PoolOptions{Capacity: 2})
	tbl, err := storage.CreateTableFile(path, 2, pool)
	if err != nil {
		fmt.Println(err)
		return
	}
	for i := int64(0); i < 1000; i++ {
		if _, err := tbl.AppendRow([]int64{i, i * 10}); err != nil {
			fmt.Println(err)
			return
		}
	}

	// Scan through the pool: pages are pinned one at a time, so a 2-frame
	// pool handles a table of any size.
	var sum int64
	if err := tbl.Scan(func(_ int64, row []int64) error {
		sum += row[1]
		return nil
	}); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("rows=%d pages=%d sum=%d\n", tbl.NumRows(), tbl.NumPages(), sum)

	// Close writes every dirty page back; reopen verifies each page's
	// checksum and rebuilds the free-space map from the slot bitmaps.
	if err := tbl.Close(); err != nil {
		fmt.Println(err)
		return
	}
	tbl, err = storage.OpenTableFile(path, 2, storage.NewPool(storage.PoolOptions{Capacity: 2}))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer tbl.Close()
	var row42 []int64
	err = tbl.Scan(func(id int64, row []int64) error {
		if id == 42 {
			row42 = append(row42, row...)
		}
		return nil
	})
	fmt.Printf("reopened rows=%d row42=%v err=%v\n", tbl.NumRows(), row42, err)
	// Output:
	// rows=1000 pages=4 sum=4995000
	// reopened rows=1000 row42=[42 420] err=<nil>
}

// countScorer predicts the count feature — exactly right for the example's
// crafted labels, so it beats the Recency incumbent.
type countScorer struct{}

func (countScorer) Predict(x []float64) float64 { return x[1] }

// ExampleNewScorerRollout shows shadow-gating a learned eviction scorer
// against the LRU-equivalent Recency incumbent: a candidate only serves
// evictions after winning a full canary window, and Demote always falls back
// safely.
func ExampleNewScorerRollout() {
	// Labeled eviction samples (features: recency, access count, gap) where
	// the true forward reuse distance is the count feature — a signal the
	// Recency heuristic cannot see.
	var samples []storage.Sample
	for i := 0; i < 200; i++ {
		x := []float64{float64(i%13 + 1), float64(i%7 + 1), float64(i % 3)}
		samples = append(samples, storage.Sample{X: x, Y: x[1]})
	}

	roll := storage.NewScorerRollout(100)
	fmt.Printf("serving v%d (%v)\n", roll.Current().Version, roll.State())

	// The candidate shadow-scores on live traffic; it is promoted only
	// after beating the incumbent over a full window.
	roll.SetCandidate(modelsvc.Deployment{Version: 1, Model: countScorer{}})
	for _, s := range samples {
		roll.Observe(s.X, s.Y)
	}
	promos, rejects, _ := roll.Stats()
	fmt.Printf("promotions=%d rejections=%d serving v%d\n", promos, rejects, roll.Current().Version)

	// A pool scoring through the rollout hot-swaps scorers on promotion;
	// demotion reverts to the Recency fallback (LRU-equivalent).
	_ = storage.NewPool(storage.PoolOptions{Capacity: 16, Scorer: roll})
	roll.Demote()
	fmt.Printf("after demote: serving v%d\n", roll.Current().Version)
	// Output:
	// serving v0 (stable)
	// promotions=1 rejections=0 serving v1
	// after demote: serving v0
}
