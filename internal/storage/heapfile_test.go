package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ml4db/internal/mlmath"
)

func TestHeapFileAllocWriteRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.heap")
	hf, err := CreateHeapFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hf.Close() }()
	if hf.NumPages() != 0 || hf.LiveTuples() != 0 {
		t.Fatalf("fresh file not empty")
	}
	pno, err := hf.AllocPage()
	if err != nil || pno != 0 {
		t.Fatalf("alloc: page=%d err=%v", pno, err)
	}
	p, err := hf.ReadPage(0)
	if err != nil {
		t.Fatalf("read fresh page: %v", err)
	}
	if _, ok := p.Insert([]int64{1, 2}); !ok {
		t.Fatal("insert failed")
	}
	if err := hf.WritePage(p); err != nil {
		t.Fatal(err)
	}
	hf.noteInsert(0, []int64{1, 2})
	if hf.LiveTuples() != 1 || hf.FreeSlots(0) != hf.SlotsPerPage()-1 {
		t.Fatalf("free map: live=%d free=%d", hf.LiveTuples(), hf.FreeSlots(0))
	}
	back, err := hf.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int64, 2)
	if !back.ReadTuple(0, row) || row[0] != 1 || row[1] != 2 {
		t.Fatalf("round trip = %v", row)
	}
	if _, err := hf.ReadPage(5); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
}

func TestHeapFileFirstFreeIsFirstFit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.heap")
	hf, err := CreateHeapFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hf.Close() }()
	if _, ok := hf.FirstFree(); ok {
		t.Fatal("empty file reported free space")
	}
	for i := 0; i < 3; i++ {
		if _, err := hf.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	// Fill page 0 and page 1; page 2 keeps one hole.
	for pno := 0; pno < 2; pno++ {
		for s := 0; s < hf.SlotsPerPage(); s++ {
			hf.noteInsert(pno, make([]int64, hf.NCols()))
		}
	}
	if pno, ok := hf.FirstFree(); !ok || pno != 2 {
		t.Fatalf("FirstFree = %d,%v want 2,true", pno, ok)
	}
	// Freeing a slot on page 0 makes it the first fit again.
	hf.noteDelete(0)
	if pno, ok := hf.FirstFree(); !ok || pno != 0 {
		t.Fatalf("FirstFree after delete = %d,%v want 0,true", pno, ok)
	}
}

// TestAppendRowMatchesFirstFitModel drives seeded random appends and deletes
// through a table file, then reopens it, and checks every row id against a
// brute-force first-fit model: the lowest free row id, or the first slot of
// a new page when every page is full. The first-fit hint must agree with it
// after deletes below, inside and above the hint, and after Open rebuilds it.
func TestAppendRowMatchesFirstFitModel(t *testing.T) {
	const ncols = 60 // 8 slots a page: pages fill and reopen often
	path := filepath.Join(t.TempDir(), "t.tbl")
	tf, err := CreateTableFile(path, ncols, NewPool(PoolOptions{Capacity: 4}))
	if err != nil {
		t.Fatal(err)
	}
	spp := tf.File().SlotsPerPage()
	var used []bool // the model, by row id
	row := make([]int64, ncols)
	appendRow := func(step int) {
		want := slices.Index(used, false)
		if want < 0 {
			want = len(used)
			used = append(used, make([]bool, spp)...)
		}
		got, err := tf.AppendRow(row)
		if err != nil || got != int64(want) {
			t.Fatalf("step %d: AppendRow = %d, %v; first fit is %d", step, got, err, want)
		}
		used[want] = true
	}
	rng := mlmath.NewRNG(7)
	for step := 0; step < 3000; step++ {
		if len(used) == 0 || rng.Intn(3) != 0 {
			appendRow(step)
			continue
		}
		id := rng.Intn(len(used)) // live or already free
		ok, err := tf.DeleteRow(int64(id))
		if err != nil || ok != used[id] {
			t.Fatalf("step %d: DeleteRow(%d) = %v, %v; model says live=%v", step, id, ok, err, used[id])
		}
		used[id] = false
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if tf, err = OpenTableFile(path, ncols, NewPool(PoolOptions{Capacity: 4})); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tf.Close() }()
	for step := 3000; step < 3000+2*spp; step++ {
		appendRow(step)
	}
}

// zone returns page pno's zone on col as the heap file keeps it.
func zone(hf *HeapFile, pno, col int) (lo, hi int64) {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	z := hf.zones[2*(pno*hf.ncols+col):]
	return z[0], z[1]
}

// TestZoneMapsHoldEveryLiveValue drives seeded appends and deletes through a
// table file and checks its zone maps against the live rows: every live value
// lies in its page's zone and MayHold lets its page through for it; a delete
// narrows no zone; an allocated page with no row yet matches no interval, not
// even all of int64. After a reopen the rebuilt zones still hold every live
// value, each inside the zone the inserts had widened.
func TestZoneMapsHoldEveryLiveValue(t *testing.T) {
	const ncols = 3
	path := filepath.Join(t.TempDir(), "t.tbl")
	tf, err := CreateTableFile(path, ncols, NewPool(PoolOptions{Capacity: 4}))
	if err != nil {
		t.Fatal(err)
	}
	hf := tf.File()
	live := map[int64][]int64{}
	rng := mlmath.NewRNG(11)
	for step := 0; step < 2000; step++ {
		if len(live) == 0 || rng.Intn(4) != 0 {
			row := []int64{int64(step), int64(rng.Intn(1000)) - 500, int64(rng.Intn(3)) << 62}
			id, err := tf.AppendRow(row)
			if err != nil {
				t.Fatal(err)
			}
			live[id] = row
			continue
		}
		id := int64(rng.Intn(tf.NumPages() * hf.SlotsPerPage()))
		pno := int(id) / hf.SlotsPerPage()
		var before [ncols][2]int64
		for c := range before {
			before[c][0], before[c][1] = zone(hf, pno, c)
		}
		if _, err := tf.DeleteRow(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
		for c := range before {
			if lo, hi := zone(hf, pno, c); lo != before[c][0] || hi != before[c][1] {
				t.Fatalf("deleting row %d moved page %d's zone on c%d from %v to [%d, %d]", id, pno, c, before[c], lo, hi)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for id, row := range live {
			pno := int(id) / hf.SlotsPerPage()
			for c, v := range row {
				if lo, hi := zone(hf, pno, c); v < lo || v > hi {
					t.Fatalf("%s: row %d's c%d = %d lies outside page %d's zone [%d, %d]", when, id, c, v, pno, lo, hi)
				}
				if hf.MayHold(pno, c, v, v)&1 == 0 {
					t.Fatalf("%s: MayHold skips page %d for row %d's c%d = %d", when, pno, id, c, v)
				}
			}
		}
	}
	check("after inserts")
	wide := slices.Clone(hf.zones)

	empty, err := hf.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	for c := range ncols {
		if may := hf.MayHold(empty, c, math.MinInt64, math.MaxInt64); may != 0 {
			t.Fatalf("an empty page may hold a value of c%d: %b", c, may)
		}
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if tf, err = OpenTableFile(path, ncols, NewPool(PoolOptions{Capacity: 4})); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tf.Close() }()
	hf = tf.File()
	check("after reopen")
	for pno := range len(wide) / (2 * ncols) {
		for c := range ncols {
			lo, hi := zone(hf, pno, c)
			if wlo, whi := wide[2*(pno*ncols+c)], wide[2*(pno*ncols+c)+1]; lo <= hi && (lo < wlo || hi > whi) {
				t.Fatalf("page %d's rebuilt zone on c%d [%d, %d] is not inside [%d, %d]", pno, c, lo, hi, wlo, whi)
			}
		}
	}
	if may := hf.MayHold(empty, 0, math.MinInt64, math.MaxInt64); may != 0 {
		t.Fatalf("the empty page may hold a value after reopen: %b", may)
	}
}

// FuzzHeapFileOpen writes a fuzzed sequence of pages, some of them bad, and
// opens it: the file must open exactly when every page is good, or else fail
// with the typed error of its first bad page — a file that ends mid-page with
// *ChecksumError on that torn page before any other — and an opened file's
// free-space map must count each page's live rows and its zones hold every
// live value, since scans skip, and do not read, the pages a zone rules out.
//
// Input: byte 0 picks the file's width (1 to 4 columns); then each page is a
// flag byte, a row count and ncols bytes per row, a value each (b − 128, or
// from 0xFC up MinInt64, MinInt64+1, MaxInt64−1 or MaxInt64). Flag bit 0
// flips a byte after the checksum, bit 1 stamps the next page's number, bit
// 2 writes one column more than the file's, bit 3 deletes every third row
// and bit 4 ends the file half way into the page.
func FuzzHeapFileOpen(f *testing.F) {
	f.Add([]byte{1, 0, 3, 1, 2, 3, 4, 5, 6, 8, 4, 0xFC, 0xFF, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 2, 7, 9, 1, 1, 5, 0, 0, 1})
	f.Add([]byte{2, 0, 1, 0xFD, 0xFE, 0xFF, 2, 1, 1, 2, 3})
	f.Add([]byte{3, 0, 0, 4, 1, 9, 9, 9, 9, 16, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 4096 {
			return
		}
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		ncols := 1 + int(next())%4
		var file []byte
		var live [][][]int64 // per good page, its live rows
		var want error       // the first bad page's error, nil if none
		for pno := 0; len(in) > 0 && pno < 64; pno++ {
			flag, n := next(), int(next())
			width, number := ncols, pno
			if flag&4 != 0 {
				width++
			}
			if flag&2 != 0 {
				number++
			}
			p := NewPage(number, width)
			var rows [][]int64
			for r := 0; r < n && r < p.NumSlots(); r++ {
				row := make([]int64, width)
				for c := range row {
					b := next()
					row[c] = int64(b) - 128
					if b >= 0xFC {
						row[c] = [...]int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}[b%4]
					}
				}
				slot, _ := p.Insert(row)
				if flag&8 != 0 && r%3 == 0 {
					p.Delete(slot)
					continue
				}
				rows = append(rows, row)
			}
			p.UpdateChecksum()
			buf := p.Bytes()
			if flag&1 != 0 {
				buf[PageSize-1] ^= 0xFF
			}
			switch {
			case flag&16 != 0:
				file = append(file, buf[:PageSize/2]...)
				want = &ChecksumError{PageNo: pno}
			case want != nil:
			case flag&1 != 0:
				want = &ChecksumError{PageNo: pno}
			case flag&2 != 0:
				want = &PageNumberError{PageNo: pno, Got: number}
			case flag&4 != 0:
				want = &PageWidthError{PageNo: pno, NCols: width, Want: ncols}
			}
			if flag&16 != 0 {
				break
			}
			file = append(file, buf...)
			live = append(live, rows)
		}
		path := filepath.Join(t.TempDir(), "f.heap")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		hf, err := OpenHeapFile(path, ncols)
		if want != nil {
			var ce *ChecksumError
			var ne *PageNumberError
			var we *PageWidthError
			switch {
			case errors.As(err, &ce):
				ce.Path = ""
				err = ce
			case errors.As(err, &ne):
				ne.Path = ""
				err = ne
			case errors.As(err, &we):
				we.Path = ""
				err = we
			}
			if !reflect.DeepEqual(err, want) {
				t.Fatalf("open: %v, want %v", err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("open of %d good pages: %v", len(live), err)
		}
		defer hf.Close()
		if hf.NumPages() != len(live) {
			t.Fatalf("%d pages, want %d", hf.NumPages(), len(live))
		}
		for pno, rows := range live {
			if got := hf.SlotsPerPage() - hf.FreeSlots(pno); got != len(rows) {
				t.Fatalf("page %d: %d live rows, want %d", pno, got, len(rows))
			}
			for _, row := range rows {
				for c, v := range row {
					if hf.MayHold(pno, c, v, v)&1 == 0 {
						t.Fatalf("page %d's zone on c%d rules out its live value %d", pno, c, v)
					}
				}
			}
		}
	})
}
