// Package storage mirrors the real buffer pool's shape — a PageHandle
// created by a non-handle receiver, Unpin as the release — so the spanend
// fixture type-checks like production code.
package storage

// Pool hands out pinned page handles.
type Pool struct{}

// PageHandle is one pinned page frame.
type PageHandle struct {
	missed bool
}

// Fetch pins pageNo and returns a handle the caller must Unpin.
func (p *Pool) Fetch(pageNo int) (*PageHandle, error) {
	_ = pageNo
	return &PageHandle{}, nil
}

// ScanRun is one scan's read path: it hands out handles like Fetch.
type ScanRun struct{}

// Read returns pageNo, read for a scan whose next pages are may; the caller
// must Unpin the handle.
func (r *ScanRun) Read(pageNo int, may uint64) (*PageHandle, error) {
	_, _ = pageNo, may
	return &PageHandle{}, nil
}

// Missed reports whether the fetch was a pool miss.
func (h *PageHandle) Missed() bool { return h.missed }

// Touch annotates the handle and returns it for chaining.
func (h *PageHandle) Touch() *PageHandle { return h }

// Unpin releases the pin.
func (h *PageHandle) Unpin() {}
