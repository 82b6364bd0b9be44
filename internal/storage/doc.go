// Package storage is the disk layer of the relational engine: slotted heap
// pages, heap files with a free-space map and zone maps, and a paged buffer
// pool whose eviction is LRU or a learned scorer.
//
// # Layout
//
// A Page is a fixed PageSize (4 KiB) byte array holding fixed-width int64
// tuples behind a checksummed header and a slot-occupancy bitmap (see
// page.go for the exact byte layout). Scans read it in place a column at a
// time (LiveSlots, AppendColumn), a first interval filter in one pass
// (Filter); a full page's live slots are a shared identity slice. A HeapFile is a sequence of pages in
// one OS file; it maintains an in-memory free-space map (free slots per
// page) and zone map (per page and column, the [min, max] of the values
// inserted; HeapFile.MayHold says which pages may hold a value in a range),
// both rebuilt from the pages on every open — and open verifies every page
// checksum, so a torn or corrupted page is rejected at reopen rather than
// silently scanned. A TableFile wraps a HeapFile with
// row-level operations (append, delete by row id, full scans) for the
// catalog's disk-backed tables.
//
// # Buffer pool and pin discipline
//
// All page access goes through a Pool: Fetch pins a page into a frame and
// returns a PageHandle; the caller must Unpin the handle on every non-error
// path (the spanend analyzer enforces this the same way it enforces
// Span.End). A pinned page is never evicted — eviction with every frame
// pinned fails with ErrAllPinned rather than corrupting a reader. Dirty
// pages (SetDirty) are written back on eviction and on Flush. Frames and
// their page buffers are recycled, so a page pointer is valid only until
// Unpin: after that its buffer may be refilled with another page.
//
// The frames sit on one intrusive recency list (list.go), coldest to
// hottest. A hit costs a map lookup and four pointer writes; an LRU miss is
// O(1) and allocates nothing: the incoming page is read and verified into
// the pool's one spare buffer, and only then is the first unpinned frame
// from the cold end written back and re-keyed in place — so a failed read
// costs no resident page. A miss is one pread of its own page: Fetch does not
// read ahead.
//
// Scans read around the pool: a ScanRun (Pool.NewScanRun) is one scan's
// private run buffer, from a pool free list. Its Read pins a resident page as
// a hit; any other page it serves from the buffer, which one pread outside
// the lock fills with the consecutive non-resident pages the scan will read
// (its mask), up to 32. A scan inserts, evicts, ticks and records no access
// in any frame's history, so it leaves replacement state as it found it, and
// a write-back advances a write epoch that makes every run staged before it
// stale. A read takes the pool lock once per page: the epoch and the miss
// count are atomic, checked and counted after the read without it.
// Fetch and ScanRun.Read inline into their callers, so the handle itself
// lives on the caller's stack.
//
// # Determinism
//
// The pool is a determinism-core package: it keeps a logical access tick
// instead of wall-clock time, the tick is unique per access so the recency
// order has no ties, and a scorer's ties are broken toward the lowest key.
// Same trace + same scorer (and, for a trained one, same training seed)
// therefore reproduce a bit-identical eviction sequence — the replay
// contract experiment E25 verifies, mirroring the mlmath.Clock/Pool
// contracts.
//
// # Learned eviction
//
// A nil PoolOptions.Scorer is LRU, served from the pool's own list. A
// non-nil one is a modelsvc.Predictor: each frame keeps its page's access
// history (last and previous access tick, accesses since the page came in),
// and a miss scores every unpinned frame's history, encoded as TraceSamples
// encodes it for training — O(capacity) per miss, the model's cost — and
// evicts the page predicted to be needed furthest in the future (the Belady
// direction). A NaN or infinite score is the recency feature instead, so a
// broken model degrades to LRU. The scorer is the modelsvc.Rollout
// NewScorerRollout returns, with no wrapper: its incumbent and fallback is
// the Recency heuristic (predicted reuse = time since last access, which
// evicts exactly like LRU) — so a trained model serves evictions only after
// beating the LRU-equivalent incumbent over a shadow window, and Demote
// falls back to the heuristic. The live hit-rate signal is querystore's
// DriftHitRate monitor (sys_drift), which reads Pool.Stats deltas per
// window. See docs/STORAGE.md.
package storage
