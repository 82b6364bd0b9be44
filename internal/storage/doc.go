// Package storage is the disk layer of the relational engine: slotted heap
// pages, heap files with a free-space map and zone maps, and a paged buffer
// pool with a pluggable — and learnable — eviction policy.
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
// (its mask), up to 32. A scan inserts, evicts, ticks and tells the policy
// nothing, so it leaves replacement state as it found it, and a write-back
// advances a write epoch that makes every run staged before it stale. A read
// takes the pool lock once per page: the epoch and the miss count are atomic,
// checked and counted after the read without it.
// Fetch and ScanRun.Read inline into their callers, so the handle itself
// lives on the caller's stack.
//
// # Determinism
//
// The pool is a determinism-core package: it keeps a logical access tick
// instead of wall-clock time, the tick is unique per access so the recency
// order has no ties, and a policy that scores candidates breaks score ties
// toward the lowest key. Same trace + same policy (and, for the learned
// policy, same training seed) therefore reproduce a bit-identical eviction
// sequence — the replay contract experiment E25 verifies,
// mirroring the mlmath.Clock/Pool contracts.
//
// # Learned eviction
//
// A nil PoolOptions.Policy is LRU, served from the pool's own list. Policy
// is the interface for anything else: a LearnedPolicy scores each unpinned
// resident's predicted forward reuse distance with a modelsvc.Predictor —
// O(capacity) per miss, the model's cost — and evicts the page predicted to
// be needed furthest in the future (the Belady direction). The predictor is
// deployed through the modelsvc.Rollout NewScorerRollout returns, whose
// incumbent and fallback is the Recency heuristic (predicted reuse = time
// since last access, which makes the learned policy behave exactly like
// LRU) — so a trained model serves evictions only after beating the
// LRU-equivalent incumbent over a shadow window, and Demote falls back to
// the heuristic. The live hit-rate
// signal is querystore's DriftHitRate monitor (sys_drift), which reads
// Pool.Stats deltas per window. See docs/STORAGE.md.
package storage
