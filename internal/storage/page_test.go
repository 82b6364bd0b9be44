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
// held, exactly the slots Used reports — Used is asked past NumSlots too, where
// set bitmap bits are no slots — and AppendColumn over them reads, column by
// column, what Value reads, into a slice grown as appending each value grows it.
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
	for c := 0; c < p.NCols(); c++ {
		vals := []int64{-1}
		for _, s := range want {
			vals = append(vals, p.Value(int(s), c))
		}
		if col := p.AppendColumn([]int64{-1}, c, want); !slices.Equal(col, vals) || cap(col) != cap(vals) {
			t.Fatalf("AppendColumn(col %d) = %v (cap %d), Value reads %v (appended to cap %d)", c, col, cap(col), vals, cap(vals))
		}
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

// FuzzPageDecode holds the page decoder to what scans assume of it. For any
// bytes PageFromBytes returns a page or an error, never a panic. The same
// bytes are then padded or cut to a page, checksummed and parsed at the page
// number they carry, so the fuzzer reaches pages that verify: on those,
// LiveSlots and AppendColumn must agree with the Used/Value loop (checkDecode).
// The seed corpus (testdata/fuzz/FuzzPageDecode: empty, full, one-slot and
// deleted-slot pages, stray bitmap bits, headers that do not verify) runs with
// the ordinary tests; fuzz with
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
