package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

func TestSlotsPerPageInvariants(t *testing.T) {
	usable := PageSize - pageHeaderSize
	for ncols := 1; ncols <= 16; ncols++ {
		n := SlotsPerPage(ncols)
		if n < 1 {
			t.Fatalf("ncols=%d: no slots fit", ncols)
		}
		if (n+7)/8+n*8*ncols > usable {
			t.Fatalf("ncols=%d: %d slots overflow the page", ncols, n)
		}
		if (n+8)/8+(n+1)*8*ncols <= usable {
			t.Fatalf("ncols=%d: %d slots is not maximal", ncols, n)
		}
	}
}

func TestPageInsertReadDelete(t *testing.T) {
	p := NewPage(3, 2)
	if p.PageNo() != 3 || p.NCols() != 2 {
		t.Fatalf("header: pageNo=%d ncols=%d", p.PageNo(), p.NCols())
	}
	if p.LiveTuples() != 0 || p.FreeSlots() != p.NumSlots() {
		t.Fatalf("fresh page not empty")
	}
	s0, ok := p.Insert([]int64{10, -20})
	if !ok || s0 != 0 {
		t.Fatalf("first insert: slot=%d ok=%v", s0, ok)
	}
	s1, ok := p.Insert([]int64{30, 40})
	if !ok || s1 != 1 {
		t.Fatalf("second insert: slot=%d ok=%v", s1, ok)
	}
	row := make([]int64, 2)
	if !p.ReadTuple(0, row) || row[0] != 10 || row[1] != -20 {
		t.Fatalf("slot 0 = %v", row)
	}
	if p.ReadTuple(5, row) {
		t.Fatalf("read of empty slot succeeded")
	}
	if !p.Delete(0) || p.Delete(0) {
		t.Fatalf("delete not idempotent-false")
	}
	// First-fit reuses the freed slot.
	s, ok := p.Insert([]int64{7, 8})
	if !ok || s != 0 {
		t.Fatalf("reinsert went to slot %d", s)
	}
	if _, ok := p.Insert([]int64{1}); ok {
		t.Fatalf("wrong-width insert succeeded")
	}
}

func TestPageFillsToCapacity(t *testing.T) {
	p := NewPage(0, 1)
	for i := 0; i < p.NumSlots(); i++ {
		if _, ok := p.Insert([]int64{int64(i)}); !ok {
			t.Fatalf("insert %d failed", i)
		}
	}
	if _, ok := p.Insert([]int64{99}); ok {
		t.Fatalf("insert into full page succeeded")
	}
	row := make([]int64, 1)
	for i := 0; i < p.NumSlots(); i++ {
		if !p.ReadTuple(i, row) || row[0] != int64(i) {
			t.Fatalf("slot %d = %v", i, row)
		}
	}
}

func TestPageFromBytesRejectsCorruption(t *testing.T) {
	p := NewPage(0, 1)
	if _, ok := p.Insert([]int64{42}); !ok {
		t.Fatal("insert failed")
	}
	p.UpdateChecksum()

	good := make([]byte, PageSize)
	copy(good, p.Bytes())
	if _, err := PageFromBytes(good, "t", 0); err != nil {
		t.Fatalf("clean page rejected: %v", err)
	}

	torn := make([]byte, PageSize)
	copy(torn, p.Bytes())
	torn[PageSize/2] ^= 0xFF
	_, err := PageFromBytes(torn, "t", 0)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("torn page: got %v, want ErrChecksum", err)
	}
	var ce *ChecksumError
	if !errors.As(err, &ce) || ce.PageNo != 0 || ce.Path != "t" {
		t.Fatalf("checksum error detail: %v", err)
	}

	// A checksum-valid page read at the wrong offset is also rejected.
	if _, err := PageFromBytes(good, "t", 7); err == nil {
		t.Fatalf("page-number mismatch accepted")
	}
}

// checkDecode fails unless LiveSlots lists, in order and appended to what dst
// held (or into an empty dst), exactly the slots Used reports — Used is asked
// past NumSlots too, where set bitmap bits are no slots — and AppendColumn over
// them reads, column by column, what Value reads, into a slice grown as
// appending each value grows it; and unless Filter agrees with them
// (checkFilter) on each column over ranges taken from the page's own bytes —
// [a, b] for the column's values in the first and the last slot, live or not,
// [b, a], [a, a] — and over the whole int64 range.
func checkDecode(t *testing.T, p *Page) {
	t.Helper()
	var want []uint16
	for s := 0; s < p.NumSlots()+8; s++ {
		if p.Used(s) {
			want = append(want, uint16(s))
		}
	}
	got := p.LiveSlots([]uint16{9999})
	if got[0] != 9999 || !slices.Equal(got[1:], want) {
		t.Fatalf("LiveSlots after [9999] = %v, want [9999] then the Used slots %v", got, want)
	}
	if got := p.LiveSlots(nil); !slices.Equal(got, want) {
		t.Fatalf("LiveSlots(nil) = %v, want the Used slots %v", got, want)
	}
	for c := 0; c < p.NCols(); c++ {
		vals := []int64{-1}
		for _, s := range want {
			vals = append(vals, p.Value(int(s), c))
		}
		if col := p.AppendColumn([]int64{-1}, c, want); !slices.Equal(col, vals) || cap(col) != cap(vals) {
			t.Fatalf("AppendColumn(col %d) = %v (cap %d), Value reads %v (appended to cap %d)", c, col, cap(col), vals, cap(vals))
		}
		var a, b int64
		if n := p.NumSlots(); n > 0 {
			a, b = p.Value(0, c), p.Value(n-1, c)
		}
		for _, r := range [][2]int64{{a, b}, {b, a}, {a, a}, {math.MinInt64, math.MaxInt64}} {
			checkFilter(t, p, c, r[0], r[1], want)
		}
	}
}

// checkFilter fails unless Filter over column col and [lo, hi] returns the
// live slots and, as ordinals into them, exactly those whose value v —
// AppendColumn's — passes (v−lo) ≤ (hi−lo) unsigned, which is lo ≤ v ≤ hi;
// none if lo > hi.
func checkFilter(t *testing.T, p *Page, col int, lo, hi int64, live []uint16) {
	t.Helper()
	var want []uint16
	for o, v := range p.AppendColumn(nil, col, live) {
		if lo <= hi && uint64(v)-uint64(lo) <= uint64(hi)-uint64(lo) {
			want = append(want, uint16(o))
		}
	}
	gotLive, kept := p.Filter(make([]uint16, p.NumSlots()), make([]uint16, p.NumSlots()), col, lo, hi)
	if !slices.Equal(gotLive, live) || !slices.Equal(kept, want) {
		t.Fatalf("Filter(col %d, [%d, %d]) = live %v, kept %v; want live %v, kept %v", col, lo, hi, gotLive, kept, live, want)
	}
}

func TestPageLiveSlotsAndColumns(t *testing.T) {
	full := NewPage(0, 1) // 502 slots: the bitmap's last byte has 2 bits past them
	for i := 0; i < full.NumSlots(); i++ {
		full.Insert([]int64{int64(-i)})
	}
	one := NewPage(1, 2)
	one.Insert([]int64{7, -7})
	holes := NewPage(2, 3)
	for i := 0; i < 20; i++ {
		holes.Insert([]int64{int64(i), int64(i * i), math.MinInt64 + int64(i)})
	}
	for _, s := range []int{0, 3, 8, 9, 19} {
		holes.Delete(s)
	}
	for _, tc := range []struct {
		name  string
		p     *Page
		slots int
	}{
		{"empty", NewPage(3, 4), 0},
		{"full", full, 502},
		{"one-slot", one, 1},
		{"deleted-slots", holes, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := len(tc.p.LiveSlots(nil)); n != tc.slots || n != tc.p.LiveTuples() {
				t.Fatalf("%d live slots, LiveTuples %d, want %d", n, tc.p.LiveTuples(), tc.slots)
			}
			checkDecode(t, tc.p)
		})
	}
	// Bits past NumSlots in a page that verifies are no slots.
	full.Bytes()[pageHeaderSize+(full.NumSlots()+7)/8-1] = 0xFF
	full.UpdateChecksum()
	p, err := PageFromBytes(full.Bytes(), "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.LiveSlots(nil); len(got) != 502 || got[501] != 501 {
		t.Fatalf("with the bitmap's stray bits set: %d live slots, last %d", len(got), got[len(got)-1])
	}
	checkDecode(t, p)
}

// A full page's live slots are the shared identity, the bitmap unread; with
// one slot deleted — the first, a middle or the last — they are the bitmap
// walk's answer again: every slot but that one.
func TestPageLiveSlotsFullIsIdentity(t *testing.T) {
	full := NewPage(0, 3) // 169 slots: the bitmap's last byte holds one
	for i := 0; i < full.NumSlots(); i++ {
		full.Insert([]int64{int64(i), int64(-i), 7})
	}
	got := full.LiveSlots(nil)
	if len(got) != full.NumSlots() || &got[0] != &identity[0] {
		t.Fatalf("full page: %d live slots, want the shared identity's first %d", len(got), full.NumSlots())
	}
	live, kept := full.Filter(nil, make([]uint16, full.NumSlots()), 0, 10, 20)
	if &live[0] != &identity[0] || !slices.Equal(kept, identity[10:21]) {
		t.Fatalf("full page Filter: live not the identity, or kept %v, want 10..20", kept)
	}
	for _, del := range []int{0, full.NumSlots() / 2, full.NumSlots() - 1} {
		p := &Page{buf: slices.Clone(full.Bytes()), ncols: full.NCols(), nslots: full.NumSlots()}
		p.Delete(del)
		want := slices.Delete(slices.Clone(identity[:p.NumSlots()]), del, del+1)
		if got := p.LiveSlots(nil); !slices.Equal(got, want) || &got[0] == &identity[0] {
			t.Fatalf("slot %d deleted: LiveSlots = %v, want %v from the bitmap", del, got, want)
		}
		checkDecode(t, p)
	}
}

// FuzzPageDecode holds the page decoder to what scans assume of it. For any
// bytes PageFromBytes returns a page or an error, never a panic. The same
// bytes are then padded or cut to a page, checksummed and parsed at the page
// number they carry, so the fuzzer reaches pages that verify: on those,
// LiveSlots and AppendColumn must agree with the Used/Value loop, and Filter
// with them (checkDecode).
// The seed corpus (testdata/fuzz/FuzzPageDecode: empty, full, one-slot and
// deleted-slot pages, stray bitmap bits, headers that do not verify, and full
// pages whose filter keeps every slot, none, or some with stray bits set, and
// a page full but for its last slot) runs with the ordinary tests; fuzz with
// go test -run '^$' -fuzz FuzzPageDecode ./internal/storage/.
func FuzzPageDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := PageFromBytes(data, "fuzz", 0); err == nil {
			checkDecode(t, p)
		}
		buf := make([]byte, PageSize)
		copy(buf, data)
		binary.LittleEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
		p, err := PageFromBytes(buf, "fuzz", int(binary.LittleEndian.Uint32(buf[4:8])))
		if err != nil {
			return
		}
		checkDecode(t, p)
	})
}
