package storage

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/obs"
)

// The pool's read paths: a Fetch miss reads its own page with one pread; a
// scan run stages, with one pread, the pages after it that the scan will read
// and the pool does not hold. These tests pin what that costs in preads and
// that it changes nothing else: the bytes served, the counters, the eviction
// order.

// TestFetchReadsOnePagePerMiss: whatever the trace — a cold sequential scan,
// random pages, a page fetched again after its write-back — every Fetch miss
// is one pread of one page, and a hit reads nothing.
func TestFetchReadsOnePagePerMiss(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace func(t *testing.T, pool *Pool, hf *HeapFile)
	}{
		{"sequential", func(t *testing.T, pool *Pool, hf *HeapFile) {
			for pno := 0; pno < hf.NumPages(); pno++ {
				fetchAndRelease(t, pool, hf, pno)
			}
		}},
		{"random", func(t *testing.T, pool *Pool, hf *HeapFile) {
			rng := mlmath.NewRNG(7)
			for i := 0; i < 500; i++ {
				fetchAndRelease(t, pool, hf, rng.Intn(hf.NumPages()))
			}
		}},
		{"after_write_back", func(t *testing.T, pool *Pool, hf *HeapFile) {
			for pno := 0; pno < hf.NumPages(); pno++ {
				h, err := pool.Fetch(hf, pno)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := h.Page().Insert([]int64{77}); !ok {
					t.Fatal("insert failed")
				}
				h.SetDirty()
				h.Unpin()
				fetchAndRelease(t, pool, hf, pno) // a hit
			}
			for pno := 0; pno < hf.NumPages(); pno++ {
				fetchAndRelease(t, pool, hf, pno)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hf := newPooledFile(t, "f.heap", 100)
			reg := obs.NewRegistry()
			pool := NewPool(PoolOptions{Capacity: 8, Metrics: reg})
			tc.trace(t, pool, hf)
			st := pool.Stats()
			if st.Misses < 100 || st.Reads != st.Misses || st.PagesRead != st.Misses {
				t.Fatalf("%+v: want one read of one page per miss", st)
			}
			if got := reg.Counter("storage.pool.reads").Value(); got != st.Reads {
				t.Fatalf("storage.pool.reads = %d, Stats().Reads = %d", got, st.Reads)
			}
		})
	}
}

// TestWriteBackDropsTheStagedRun: a page fetched on a sequential trace,
// dirtied and written back on eviction is read from disk again, once, with
// the new bytes. Fetch reads one page per miss, so no staged copy of the
// page can outlive its write-back.
func TestWriteBackDropsTheStagedRun(t *testing.T) {
	hf := newPooledFile(t, "wb.heap", 10)
	pool := NewPool(PoolOptions{Capacity: 2})
	fetchAndRelease(t, pool, hf, 0)
	fetchAndRelease(t, pool, hf, 1)
	h, err := pool.Fetch(hf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Page().Insert([]int64{77}); !ok {
		t.Fatal("insert failed")
	}
	h.SetDirty()
	h.Unpin()
	fetchAndRelease(t, pool, hf, 3)
	fetchAndRelease(t, pool, hf, 4) // evicts page 2: written back
	readsBefore := pool.Stats().Reads
	h, err = pool.Fetch(hf, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unpin()
	row := make([]int64, 1)
	if !h.Missed() || !h.Page().ReadTuple(1, row) || row[0] != 77 {
		t.Fatalf("page 2 after its write-back: missed %v, slot 1 = %v, want the written 77", h.Missed(), row)
	}
	if pool.Stats().Reads != readsBefore+1 {
		t.Fatal("page 2 was not read from disk again")
	}
}

// TestWriteBackDropsTheStagedScanRun: a page dirtied, written back and
// evicted while a scan's run holds its old bytes is read from disk again,
// with the new bytes — the pool's write epoch outdates the run.
func TestWriteBackDropsTheStagedScanRun(t *testing.T) {
	hf := newPooledFile(t, "wbscan.heap", 10)
	pool := NewPool(PoolOptions{Capacity: 1})
	run := pool.NewScanRun(hf)
	defer run.Release()
	read := func(pno int) (missed bool, slot1 int64) {
		h, err := run.Read(pno, ^uint64(0)>>(54+pno))
		if err != nil {
			t.Fatal(err)
		}
		defer h.Unpin()
		row := make([]int64, 1)
		if !h.Page().ReadTuple(1, row) {
			row[0] = -1
		}
		return h.Missed(), row[0]
	}
	read(0) // stages pages 0 to 9
	h, err := pool.Fetch(hf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Page().Insert([]int64{77}); !ok {
		t.Fatal("insert failed")
	}
	h.SetDirty()
	h.Unpin()
	fetchAndRelease(t, pool, hf, 9) // evicts page 2: written back
	readsBefore := pool.Stats().Reads
	if missed, v := read(2); !missed || v != 77 {
		t.Fatalf("page 2 after its write-back: missed %v, slot 1 = %d, want the written 77", missed, v)
	}
	if pool.Stats().Reads != readsBefore+1 {
		t.Fatal("page 2 was not read from disk again")
	}
}

// TestScanReadsOnlyItsPages: a scan run stages, with one pread, the pages
// from the one asked for on that its mask holds and the pool does not, up to
// the first other page; resident pages are hits and the mask's gaps are
// never read, so pages read equal misses.
func TestScanReadsOnlyItsPages(t *testing.T) {
	hf := newPooledFile(t, "mask.heap", 40)
	pool := NewPool(PoolOptions{Capacity: 4})
	fetchAndRelease(t, pool, hf, 5)
	before := pool.Stats()
	run := pool.NewScanRun(hf)
	defer run.Release()
	const mask = uint64(0b1111_1011_1111_1111) // pages 0-15 but 10; 5 is resident
	var hits int
	for pno := 0; pno < 16; pno++ {
		if mask>>pno&1 == 0 {
			continue
		}
		h, err := run.Read(pno, mask>>pno)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Missed() {
			hits++
		}
		h.Unpin()
	}
	st := pool.Stats()
	if hits != 1 || st.Misses-before.Misses != 14 || st.Reads-before.Reads != 3 || st.PagesRead-before.PagesRead != 14 {
		t.Fatalf("%d hits, stats %+v -> %+v: want page 5 a hit, and 14 misses from 3 reads of 14 pages: 0-4, 6-9, 11-15", hits, before, st)
	}
	if st.Resident != before.Resident || st.Evictions != before.Evictions {
		t.Fatalf("a scan changed the resident set: %+v -> %+v", before, st)
	}
}

// shadowOf is a page's logical content: each slot's value, or a marker for a
// free slot.
func shadowOf(p *Page) []int64 {
	out := make([]int64, p.NumSlots())
	for s := range out {
		out[s] = -1 << 62
		if p.Used(s) {
			out[s] = p.Value(s, 0)
		}
	}
	return out
}

// flush mirrors Pool.FlushAll: every dirty page is written back.
func (r *refPool) flush() {
	for _, pg := range r.pages {
		if pg.dirty {
			pg.dirty = false
			r.st.Writebacks++
		}
	}
}

// replacementState renders what a scan read must leave as it was: the tick,
// the eviction log's length and the frames.
func replacementState(p *Pool) string {
	return fmt.Sprintf("tick %d, %d evictions:%s", p.tick, len(p.evictLog), frameState(p))
}

// frameState renders the recency order, cold to hot, with each frame's
// access history (last and previous access tick, access count) and pins.
func frameState(p *Pool) string {
	var b strings.Builder
	for fr := p.lru.coldest(); fr != nil; fr = p.lru.next(fr) {
		fmt.Fprintf(&b, " %v@%d/%d/%dx/%d", fr.key, fr.hist.last, fr.hist.prev, fr.hist.count, fr.pins)
	}
	return b.String()
}

// FuzzPoolReads drives the pool over a fuzzed capacity and trace — sequential
// fetches, random pages, dirty writes with flushes, scans through one ScanRun
// per file over fuzzed masks, and one corrupted page — next to a shadow copy
// of every page and the reference pool of evict_diff_test.go. Every page a
// fetch or a scan read returns holds the shadow's bytes; Stats but Reads and
// PagesRead and the eviction log equal the reference's; only the corrupted
// page's reads fail, with *ChecksumError; a fetch reads one page with one
// pread on a miss or a failed read and nothing on a hit; and a scan reads no
// page it does not serve and leaves the tick, the recency order, every
// frame's access history and the eviction log untouched.
//
// Input: byte 0 picks the capacity (1 to 12) and the scorer (none, for LRU,
// or Recency), byte 1 the corrupted page of file a; then
// each op is three bytes: kind, page, and a length or value. A scan (kind 8
// or 12, mod 16) takes three bytes more: a mask of 24 pages, repeated.
func FuzzPoolReads(f *testing.F) {
	f.Add([]byte{3, 20, 0, 0, 40, 1, 5, 0, 0, 10, 20})
	f.Add([]byte{2, 39, 2, 3, 9, 0, 1, 12, 3, 0, 0, 0, 0, 30})
	f.Add([]byte{0x84, 7, 0, 0, 39, 2, 4, 1, 0, 2, 30, 1, 9, 0, 0, 0, 39})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 || len(in) > 2+3*200 {
			return
		}
		const npages = 40
		capacity, bad := 1+int(in[0]&0x7f)%12, int(in[1])%npages
		var scorer modelsvc.Predictor
		if in[0]&0x80 != 0 {
			scorer = Recency{}
		}
		files := []*HeapFile{newPooledFile(t, "a.heap", npages), newPooledFile(t, "b.heap", npages)}
		shadow := [2][][]int64{}
		for i, hf := range files {
			for pno := 0; pno < npages; pno++ {
				p, err := hf.ReadPage(pno)
				if err != nil {
					t.Fatal(err)
				}
				shadow[i] = append(shadow[i], shadowOf(p))
			}
		}
		fd, err := os.OpenFile(files[0].Path(), os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fd.WriteAt([]byte{0xAB}, int64(bad)*PageSize+PageSize/2); err != nil {
			t.Fatal(err)
		}
		if err := fd.Close(); err != nil {
			t.Fatal(err)
		}
		pool := NewPool(PoolOptions{Capacity: capacity, Scorer: scorer, RecordEvictions: true})
		ref := &refPool{cap: capacity, pages: map[PageKey]*refPage{}, files: map[*HeapFile]uint32{}}
		runs := [2]ScanRun{pool.NewScanRun(files[0]), pool.NewScanRun(files[1])}
		defer runs[0].Release()
		defer runs[1].Release()
		failed := int64(0)
		// fetch pins page pno of file i in both pools, checks it and, when
		// write is set, inserts v or deletes slot v, writing the shadow.
		fetch := func(i, pno int, write bool, v byte) {
			hf := files[i]
			before := pool.Stats()
			h, err := pool.Fetch(hf, pno)
			after := pool.Stats()
			read := int64(1)
			if err == nil && !h.Missed() {
				read = 0
			}
			if after.Reads-before.Reads != read || after.PagesRead-before.PagesRead != read {
				t.Fatalf("fetch %d/%d (err %v): %d reads of %d pages, want %d of %d", i, pno, err, after.Reads-before.Reads, after.PagesRead-before.PagesRead, read, read)
			}
			if i == 0 && pno == bad {
				var ce *ChecksumError
				if !errors.As(err, &ce) || ce.PageNo != bad {
					t.Fatalf("fetch of corrupted page %d: %v, want *ChecksumError", pno, err)
				}
				if _, ok := ref.files[hf]; !ok { // the pool registered it all the same
					ref.files[hf], ref.nextID = ref.nextID, ref.nextID+1
				}
				failed++
				return
			}
			if err != nil {
				t.Fatalf("fetch %d/%d: %v", i, pno, err)
			}
			defer h.Unpin()
			key, missed, _ := ref.fetch(hf, pno)
			defer func() { ref.pages[key].pins-- }()
			if got := shadowOf(h.Page()); h.Missed() != missed || !reflect.DeepEqual(got, shadow[i][pno]) {
				t.Fatalf("page %d/%d (missed %v, reference %v) differs from what was last written", i, pno, h.Missed(), missed)
			}
			if !write {
				return
			}
			if _, ok := h.Page().Insert([]int64{int64(v)}); !ok {
				h.Page().Delete(int(v) % h.Page().NumSlots())
			}
			h.SetDirty()
			ref.pages[key].dirty = true
			shadow[i][pno] = shadowOf(h.Page())
		}
		// scan reads pages [pno, end) of file i that mask (bit k for page
		// pno+k%24) picks through the file's run, telling each read the picked
		// pages from its own on.
		scan := func(i, pno, end int, mask uint32) {
			before, state, failedBefore := pool.Stats(), replacementState(pool), failed
			picked := func(q int) bool { return mask>>((q-pno)%24)&1 != 0 }
			for q := pno; q < end; q++ {
				if !picked(q) {
					continue
				}
				var will uint64
				for k := 0; k < 64 && q+k < end; k++ {
					if picked(q + k) {
						will |= 1 << k
					}
				}
				h, err := runs[i].Read(q, will)
				if i == 0 && q == bad {
					var ce *ChecksumError
					if !errors.As(err, &ce) || ce.PageNo != bad {
						t.Fatalf("scan read of corrupted page %d: %v, want *ChecksumError", q, err)
					}
					failed++
					continue
				}
				if err != nil {
					t.Fatalf("scan read %d/%d: %v", i, q, err)
				}
				key, pinned := ref.fetchScan(files[i], q)
				if got := shadowOf(h.Page()); h.Missed() == pinned || !reflect.DeepEqual(got, shadow[i][q]) {
					t.Fatalf("scan read of page %d/%d (missed %v, resident %v) differs from what was last written", i, q, h.Missed(), pinned)
				}
				h.Unpin()
				if pinned {
					ref.pages[key].pins--
				}
			}
			after := pool.Stats()
			if served := after.Misses - before.Misses + failed - failedBefore; after.PagesRead-before.PagesRead > served {
				t.Fatalf("a scan read %d pages and served %d of them", after.PagesRead-before.PagesRead, served)
			}
			if got := replacementState(pool); got != state {
				t.Fatalf("a scan changed the replacement state: %s -> %s", state, got)
			}
		}
		for ops := in[2:]; len(ops) >= 3; {
			kind, pno, arg := ops[0], int(ops[1])%npages, ops[2]
			i := int(kind>>2) % 2
			ops = ops[3:]
			switch {
			case kind%4 == 0 && kind&8 != 0:
				var mask uint32
				for k, b := range ops[:min(3, len(ops))] {
					mask |= uint32(b) << (8 * k)
				}
				ops = ops[min(3, len(ops)):]
				scan(i, pno, min(pno+int(arg)%(npages+1), npages), mask)
			case kind%4 == 0: // sequential fetches from pno
				for q := pno; q < min(pno+int(arg)%(npages+1), npages); q++ {
					fetch(i, q, false, 0)
				}
			case kind%4 == 1:
				fetch(i, pno, false, 0)
			case kind%4 == 2:
				fetch(i, pno, true, arg)
			default:
				if err := pool.FlushAll(); err != nil {
					t.Fatal(err)
				}
				ref.flush()
			}
			got, want := pool.Stats(), ref.stats()
			if got.Reads > got.Misses+failed {
				t.Fatalf("%d reads for %d misses and %d failed fetches", got.Reads, got.Misses, failed)
			}
			if got.Reads, got.PagesRead = 0, 0; got != want {
				t.Fatalf("stats = %+v, want %+v", got, want)
			}
		}
		if got := pool.EvictionLog(); len(got) != len(ref.log) || (len(got) > 0 && !reflect.DeepEqual(got, ref.log)) {
			t.Fatalf("eviction log %v, want %v", got, ref.log)
		}
	})
}
