package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// PageSize is the fixed on-disk page size in bytes.
const PageSize = 4096

// pageHeaderSize is the fixed header: checksum (4) | pageNo (4) | ncols (2)
// | nslots (2). The checksum is CRC-32 (IEEE) over everything after the
// checksum field itself.
const pageHeaderSize = 12

// ErrChecksum matches any page-checksum failure under errors.Is.
var ErrChecksum = errors.New("storage: page checksum mismatch")

// ChecksumError reports a torn or corrupted page: the stored checksum does
// not cover the page bytes read back.
type ChecksumError struct {
	Path   string
	PageNo int
}

// Error implements error.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("storage: checksum mismatch on page %d of %s (torn or corrupted page)", e.PageNo, e.Path)
}

// Is reports checksum failures as ErrChecksum so errors.Is matches.
func (e *ChecksumError) Is(target error) bool { return target == ErrChecksum }

// ErrPageWidth matches any page-width mismatch under errors.Is.
var ErrPageWidth = errors.New("storage: page tuple width differs from its file's")

// PageWidthError reports a page that verifies but holds tuples of another
// width than its file's — a page written for a different table. Reading its
// columns at the file's width would return other tuples' bytes.
type PageWidthError struct {
	Path        string
	PageNo      int
	NCols, Want int
}

// Error implements error.
func (e *PageWidthError) Error() string {
	return fmt.Sprintf("storage: page %d of %s holds %d-column tuples, want %d", e.PageNo, e.Path, e.NCols, e.Want)
}

// Is reports width mismatches as ErrPageWidth so errors.Is matches.
func (e *PageWidthError) Is(target error) bool { return target == ErrPageWidth }

// ErrPageNumber matches any page-number mismatch under errors.Is.
var ErrPageNumber = errors.New("storage: page carries another page's number")

// PageNumberError reports a page that verifies but carries another page's
// number in its header: a write that landed at the wrong offset.
type PageNumberError struct {
	Path        string
	PageNo, Got int
}

// Error implements error.
func (e *PageNumberError) Error() string {
	return fmt.Sprintf("storage: page %d of %s carries page number %d", e.PageNo, e.Path, e.Got)
}

// Is reports page-number mismatches as ErrPageNumber so errors.Is matches.
func (e *PageNumberError) Is(target error) bool { return target == ErrPageNumber }

// SlotsPerPage returns how many ncols-wide tuples fit in one page after the
// header and the slot-occupancy bitmap (one bit per slot).
func SlotsPerPage(ncols int) int {
	usable := PageSize - pageHeaderSize
	s := usable * 8 / (1 + 64*ncols)
	for s > 0 && (s+7)/8+s*8*ncols > usable {
		s--
	}
	return s
}

// Page is one slotted heap page: a PageSize buffer whose header, bitmap,
// and tuple area are read and written in place. Tuples are fixed-width rows
// of ncols little-endian int64s; the slot directory is a bitmap marking
// which slots hold live tuples.
type Page struct {
	buf    []byte
	ncols  int
	nslots int
}

// NewPage returns an initialized empty page for pageNo with ncols-wide
// tuples.
func NewPage(pageNo, ncols int) *Page {
	p := &Page{buf: make([]byte, PageSize), ncols: ncols, nslots: SlotsPerPage(ncols)}
	binary.LittleEndian.PutUint32(p.buf[4:8], uint32(pageNo))
	binary.LittleEndian.PutUint16(p.buf[8:10], uint16(ncols))
	binary.LittleEndian.PutUint16(p.buf[10:12], uint16(p.nslots))
	return p
}

// PageFromBytes parses a page from buf (which must be PageSize long and is
// retained, not copied), verifying the checksum and the header's internal
// consistency. path and pageNo label the error on failure.
func PageFromBytes(buf []byte, path string, pageNo int) (*Page, error) {
	p, err := parsePage(buf, path, pageNo)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// parsePage is PageFromBytes by value, so the pool can refill a recycled
// Page in place without allocating.
func parsePage(buf []byte, path string, pageNo int) (Page, error) {
	if len(buf) != PageSize {
		return Page{}, fmt.Errorf("storage: page buffer is %d bytes, want %d", len(buf), PageSize)
	}
	stored := binary.LittleEndian.Uint32(buf[0:4])
	if stored != crc32.ChecksumIEEE(buf[4:]) {
		return Page{}, &ChecksumError{Path: path, PageNo: pageNo}
	}
	ncols := int(binary.LittleEndian.Uint16(buf[8:10]))
	nslots := int(binary.LittleEndian.Uint16(buf[10:12]))
	if ncols < 1 || nslots != SlotsPerPage(ncols) {
		return Page{}, &ChecksumError{Path: path, PageNo: pageNo}
	}
	if got := int(binary.LittleEndian.Uint32(buf[4:8])); got != pageNo {
		return Page{}, &PageNumberError{Path: path, PageNo: pageNo, Got: got}
	}
	return Page{buf: buf, ncols: ncols, nslots: nslots}, nil
}

// UpdateChecksum recomputes the header checksum over the page contents.
// Call it before writing the page to disk.
func (p *Page) UpdateChecksum() {
	binary.LittleEndian.PutUint32(p.buf[0:4], crc32.ChecksumIEEE(p.buf[4:]))
}

// Bytes returns the page's backing buffer (PageSize long).
func (p *Page) Bytes() []byte { return p.buf }

// PageNo returns the page number stored in the header.
func (p *Page) PageNo() int { return int(binary.LittleEndian.Uint32(p.buf[4:8])) }

// NCols returns the tuple width in columns.
func (p *Page) NCols() int { return p.ncols }

// NumSlots returns the slot-directory capacity.
func (p *Page) NumSlots() int { return p.nslots }

// Used reports whether slot holds a live tuple.
func (p *Page) Used(slot int) bool {
	if slot < 0 || slot >= p.nslots {
		return false
	}
	return p.buf[pageHeaderSize+slot/8]&(1<<uint(slot%8)) != 0
}

func (p *Page) setUsed(slot int, used bool) {
	if used {
		p.buf[pageHeaderSize+slot/8] |= 1 << uint(slot%8)
	} else {
		p.buf[pageHeaderSize+slot/8] &^= 1 << uint(slot%8)
	}
}

// FreeSlots counts the unoccupied slots.
func (p *Page) FreeSlots() int {
	free := 0
	for s := 0; s < p.nslots; s++ {
		if !p.Used(s) {
			free++
		}
	}
	return free
}

// LiveTuples counts the occupied slots.
func (p *Page) LiveTuples() int { return p.nslots - p.FreeSlots() }

func (p *Page) tupleOff(slot int) int {
	bitmap := (p.nslots + 7) / 8
	return pageHeaderSize + bitmap + slot*8*p.ncols
}

// Insert places row into the lowest free slot, returning the slot, or
// ok=false when the page is full or the row width is wrong.
func (p *Page) Insert(row []int64) (slot int, ok bool) {
	if len(row) != p.ncols {
		return 0, false
	}
	for s := 0; s < p.nslots; s++ {
		if p.Used(s) {
			continue
		}
		off := p.tupleOff(s)
		for c, v := range row {
			binary.LittleEndian.PutUint64(p.buf[off+8*c:], uint64(v))
		}
		p.setUsed(s, true)
		return s, true
	}
	return 0, false
}

// ReadTuple copies the tuple in slot into dst (which must be ncols long),
// returning false for an empty or out-of-range slot.
func (p *Page) ReadTuple(slot int, dst []int64) bool {
	if !p.Used(slot) || len(dst) != p.ncols {
		return false
	}
	off := p.tupleOff(slot)
	for c := range dst {
		dst[c] = int64(binary.LittleEndian.Uint64(p.buf[off+8*c:]))
	}
	return true
}

// Value reads column col of the tuple in slot in place, without copying the
// row. The caller checks Used(slot) and keeps col below NCols: Value checks
// neither, which is what lets a scan decode one column at a time.
func (p *Page) Value(slot, col int) int64 {
	return int64(binary.LittleEndian.Uint64(p.buf[p.tupleOff(slot)+8*col:]))
}

// LiveSlots appends the page's live slots to dst in ascending order — the
// slots Used reports, so bitmap bits at or beyond NumSlots are not slots —
// and returns the extended slice. A full page asked into an empty dst does
// not walk its bitmap: it returns a shared read-only identity slice instead,
// which the caller must not write to.
func (p *Page) LiveSlots(dst []uint16) []uint16 {
	if len(dst) == 0 && p.full() {
		return identity[:p.nslots]
	}
	for i, b := range p.buf[pageHeaderSize : pageHeaderSize+(p.nslots+7)/8] {
		for ; b != 0; b &= b - 1 {
			slot := i*8 + bits.TrailingZeros8(b)
			if slot >= p.nslots {
				return dst
			}
			dst = append(dst, uint16(slot))
		}
	}
	return dst
}

// identity[i] == i: a full page's live slots, read-only. No page has more
// slots than a one-column page's.
var identity = func() (o [PageSize / 8]uint16) {
	for i := range o {
		o[i] = uint16(i)
	}
	return o
}()

// full reports whether every slot is live: every bitmap bit below NumSlots is
// set (those at or past it are no slots and are masked off).
func (p *Page) full() bool {
	n := p.nslots / 8
	bm := p.buf[pageHeaderSize : pageHeaderSize+n+1]
	for _, b := range bm[:n] {
		if b != 0xFF {
			return false
		}
	}
	mask := byte(1)<<(p.nslots%8) - 1
	return bm[n]&mask == mask
}

// Filter is a scan's first filter over the page, in place and in one pass: it
// returns the page's live slots, as LiveSlots(slots[:0]) returns them, and the
// ordinals of those — positions in live, ascending — whose column col lies in
// [lo, hi], written to sel, which must hold NumSlots. lo > hi keeps none. The
// test is key − lo ≤ hi − lo unsigned, without a branch, so it is exact over
// all of int64. Like AppendColumn it trusts col to be below NCols.
func (p *Page) Filter(slots, sel []uint16, col int, lo, hi int64) (live, kept []uint16) {
	live = p.LiveSlots(slots[:0])
	if lo > hi {
		return live, sel[:0]
	}
	base, stride := p.tupleOff(0)+8*col, 8*p.ncols
	ulo, span := uint64(lo), uint64(hi)-uint64(lo)
	sel, k := sel[:len(live)], 0
	for o, s := range live {
		sel[k] = uint16(o)
		_, borrow := bits.Sub64(span, binary.LittleEndian.Uint64(p.buf[base+int(s)*stride:])-ulo, 0)
		k += int(borrow ^ 1)
	}
	return live, sel[:k]
}

// AppendColumn appends column col of the tuple in each of slots to dst and
// returns the extended slice: Value(slot, col) for every slot, read at one
// base offset and one stride. dst grows exactly as appending the values one
// at a time would grow it. Like Value it trusts its caller: every slot below
// NumSlots (live or not, the bytes are read as they are) and col below NCols.
func (p *Page) AppendColumn(dst []int64, col int, slots []uint16) []int64 {
	base, stride := p.tupleOff(0)+8*col, 8*p.ncols
	for len(slots) > 0 {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n := min(len(slots), cap(dst)-len(dst))
		vals := dst[len(dst) : len(dst)+n]
		for i, s := range slots[:n] {
			vals[i] = int64(binary.LittleEndian.Uint64(p.buf[base+int(s)*stride:]))
		}
		dst, slots = dst[:len(dst)+n], slots[n:]
	}
	return dst
}

// Delete clears slot, returning false if it was already empty.
func (p *Page) Delete(slot int) bool {
	if !p.Used(slot) {
		return false
	}
	p.setUsed(slot, false)
	return true
}
