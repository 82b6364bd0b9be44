// Package spanend exercises the spanend analyzer: spans must reach End, os
// files must reach Close, and page handles must reach Unpin on every return
// path.
package spanend

import (
	"errors"
	"os"

	"ml4db/internal/analysis/testdata/src/spanend/obs"
	"ml4db/internal/analysis/testdata/src/spanend/storage"
)

var errOops = errors.New("oops")

func work() {}

func leakOnError(tr *obs.Tracer, fail bool) error {
	sp := tr.StartSpan("work", nil) // want "may not reach End"
	if fail {
		return errOops
	}
	sp.End()
	return nil
}

func endsEverywhere(tr *obs.Tracer, fail bool) error {
	sp := tr.StartSpan("work", nil)
	if fail {
		sp.End()
		return errOops
	}
	sp.SetInt("n", 1).End() // chained release resolves to sp
	return nil
}

func deferredEnd(tr *obs.Tracer) {
	sp := tr.StartSpan("work", nil)
	defer sp.End()
	work()
}

func deferredEndInLiteral(tr *obs.Tracer) {
	sp := tr.StartSpan("work", nil)
	defer func() { sp.SetInt("done", 1).End() }()
	work()
}

func discarded(tr *obs.Tracer) {
	tr.StartSpan("work", nil) // want "discarded"
	work()
}

func assignedToBlank(tr *obs.Tracer) {
	_ = tr.StartSpan("work", nil) // want "assigned to _"
	work()
}

func reassignedWhileLive(tr *obs.Tracer) {
	sp := tr.StartSpan("first", nil) // want "overwritten"
	sp = tr.StartSpan("second", nil)
	sp.End()
}

func reassignedAfterEnd(tr *obs.Tracer) {
	sp := tr.StartSpan("first", nil)
	sp.End()
	sp = tr.StartSpan("second", nil)
	sp.End()
}

func suppressedLeak(tr *obs.Tracer, fail bool) error {
	//ml4db:allow spanend "fixture: leak is intentional to exercise suppression"
	sp := tr.StartSpan("work", nil)
	if fail {
		return errOops
	}
	sp.End()
	return nil
}

// Ownership transfers stop tracking: the caller must End it.
func returnsSpan(tr *obs.Tracer) *obs.Span {
	return tr.StartSpan("work", nil).SetInt("handed", 1)
}

func storesSpan(tr *obs.Tracer, sink []*obs.Span) []*obs.Span {
	sp := tr.StartSpan("work", nil)
	return append(sink, sp)
}

func fileLeak(path string, cond bool) error {
	f, err := os.Open(path) // want "may not reach Close"
	if err != nil {
		return err // propagating the open error: handle is nil, exempt
	}
	if cond {
		return errOops
	}
	return f.Close()
}

func fileClosed(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	work()
	return nil
}

func fileClosedOnEachPath(path string, cond bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if cond {
		_ = f.Close()
		return errOops
	}
	return f.Close()
}

func pinLeakOnError(p *storage.Pool, fail bool) error {
	h, err := p.Fetch(0) // want "may not reach Unpin"
	if err != nil {
		return err // propagating the fetch error: handle is nil, exempt
	}
	if fail {
		return errOops
	}
	h.Unpin()
	return nil
}

// A scan read's handle is tracked like a fetched one: the read is a
// ScanRun method, not a PageHandle one.
func scanReadLeakOnError(run *storage.ScanRun, fail bool) error {
	h, err := run.Read(0, 1) // want "may not reach Unpin"
	if err != nil {
		return err
	}
	if fail {
		return errOops
	}
	h.Unpin()
	return nil
}

func scanReadDeferred(run *storage.ScanRun, fail bool) error {
	h, err := run.Read(0, 1)
	if err != nil {
		return err
	}
	defer h.Unpin()
	if fail {
		return errOops
	}
	return nil
}

func pinDeferred(p *storage.Pool, fail bool) error {
	h, err := p.Fetch(0)
	if err != nil {
		return err
	}
	defer h.Unpin()
	if fail {
		return errOops
	}
	return nil
}

func pinDiscarded(p *storage.Pool) {
	p.Fetch(0) // want "discarded"
	work()
}

func pinChainedRelease(p *storage.Pool) error {
	h, err := p.Fetch(0)
	if err != nil {
		return err
	}
	h.Touch().Unpin() // chained release resolves to h
	return nil
}

// Touch chains on an existing handle; it must not count as a new pin.
func pinChainIsNotCreation(h *storage.PageHandle) {
	h.Touch()
	work()
}
