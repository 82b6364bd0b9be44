package storage

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
)

// The pool's read path: a miss that continues the previous miss stages the
// run of non-resident pages after it with one pread, and the misses inside the
// run copy their page out. These tests pin what that costs in preads and that
// it changes nothing else: the bytes served, the counters, the eviction order.

// TestSequentialScanReadsByTheRun: a cold scan of n pages through Fetch issues
// one read for its first page and one per run of runPages after it, and still
// misses once per page.
func TestSequentialScanReadsByTheRun(t *testing.T) {
	const npages = 100
	hf := newPooledFile(t, "seq.heap", npages)
	reg := obs.NewRegistry()
	pool := NewPool(PoolOptions{Capacity: 8, Metrics: reg})
	for pno := 0; pno < npages; pno++ {
		if !fetchAndRelease(t, pool, hf, pno) {
			t.Fatalf("page %d hit in a cold scan", pno)
		}
	}
	st := pool.Stats()
	if limit := int64((npages+runPages-1)/runPages + 1); st.Reads > limit || st.Misses != npages || st.Evictions != npages-8 {
		t.Fatalf("cold scan of %d pages: %+v, want at most %d reads and a miss per page", npages, st, limit)
	}
	if got := reg.Counter("storage.pool.reads").Value(); got != st.Reads {
		t.Fatalf("storage.pool.reads = %d, Stats().Reads = %d", got, st.Reads)
	}
}

// TestRandomMissesReadOnePageEach: a trace in which no miss continues the one
// before it — only even pages — reads exactly one page per miss, as IndexScan's
// random fetches do.
func TestRandomMissesReadOnePageEach(t *testing.T) {
	hf := newPooledFile(t, "rand.heap", 64)
	pool := NewPool(PoolOptions{Capacity: 6})
	rng := mlmath.NewRNG(7)
	for i := 0; i < 500; i++ {
		fetchAndRelease(t, pool, hf, 2*rng.Intn(32))
	}
	if st := pool.Stats(); st.Reads != st.Misses || st.Misses < 100 {
		t.Fatalf("random trace: %+v, want one read per miss", st)
	}
}

// TestWriteBackDropsTheStagedRun: a page written back while a staged run
// holds its old bytes is read from disk again, with the new bytes.
func TestWriteBackDropsTheStagedRun(t *testing.T) {
	hf := newPooledFile(t, "wb.heap", 10)
	pool := NewPool(PoolOptions{Capacity: 2})
	fetchAndRelease(t, pool, hf, 0)
	fetchAndRelease(t, pool, hf, 1) // continues page 0: stages pages 1 to 9
	h, err := pool.Fetch(hf, 2)     // served from the run
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

// FuzzPoolReads drives the pool over a fuzzed capacity and trace — sequential
// runs, random pages, dirty writes with flushes and one corrupted page — next
// to a shadow copy of every page and the reference pool of evict_diff_test.go.
// Every fetched page holds the shadow's bytes; Stats but Reads and the
// eviction log equal the reference's; only the corrupted page's fetch fails,
// with *ChecksumError; and no miss costs more than one pread.
//
// Input: byte 0 picks the capacity (1 to 12) and the policy (LRU or the
// learned policy under Recency), byte 1 the corrupted page of file a; then
// each op is three bytes: kind, page, and a length or value.
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
		var policy Policy
		if in[0]&0x80 != 0 {
			policy = NewLearnedPolicy(Recency{})
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
		pool := NewPool(PoolOptions{Capacity: capacity, Policy: policy, RecordEvictions: true})
		ref := &refPool{cap: capacity, pages: map[PageKey]*refPage{}, files: map[*HeapFile]uint32{}}
		failed := int64(0)
		// fetch pins page pno of file i in both pools, checks it and, when
		// write is set, inserts v or deletes slot v, writing the shadow.
		fetch := func(i, pno int, write bool, v byte) {
			hf := files[i]
			h, err := pool.Fetch(hf, pno)
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
		for ops := in[2:]; len(ops) >= 3; ops = ops[3:] {
			kind, pno, arg := ops[0], int(ops[1])%npages, ops[2]
			i := int(kind>>2) % 2
			switch kind % 4 {
			case 0: // a sequential run from pno
				for q := pno; q < min(pno+int(arg)%(npages+1), npages); q++ {
					fetch(i, q, false, 0)
				}
			case 1:
				fetch(i, pno, false, 0)
			case 2:
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
			if got.Reads = 0; got != want {
				t.Fatalf("stats = %+v, want %+v", got, want)
			}
		}
		if got := pool.EvictionLog(); len(got) != len(ref.log) || (len(got) > 0 && !reflect.DeepEqual(got, ref.log)) {
			t.Fatalf("eviction log %v, want %v", got, ref.log)
		}
	})
}
