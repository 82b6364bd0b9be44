package storage

// frame is one resident page with its access history and, through its
// intrusive links, a node of the package's one recency list.
type frame struct {
	prev, next *frame
	key        PageKey
	hf         *HeapFile
	page       *Page
	pins       int
	dirty      bool
	hist       history // since the page came in: reset when the frame is re-keyed
}

// recency orders frames from least to most recently used, as a ring through
// a sentinel: root.next is the coldest frame, root.prev the hottest. Every
// access moves its frame to the hot end, so the order is exactly ascending
// hist.last, and ticks are unique, so "coldest" never has a tie.
type recency struct{ root frame }

func (l *recency) init() { l.root.prev, l.root.next = &l.root, &l.root }

// coldest returns the least recently used frame and next the one after fr
// toward the hot end; both return nil past the end.
func (l *recency) coldest() *frame { return l.next(&l.root) }

func (l *recency) next(fr *frame) *frame {
	if fr.next == &l.root {
		return nil
	}
	return fr.next
}

// touch makes fr the most recently used frame, linking it if it is new.
func (l *recency) touch(fr *frame) {
	if fr.next != nil {
		l.remove(fr)
	}
	hot := l.root.prev
	fr.prev, fr.next = hot, &l.root
	hot.next, l.root.prev = fr, fr
}

func (l *recency) remove(fr *frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}
