package autopilot

import (
	"fmt"
	"io"
	"time"

	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
)

// Stage is where a tuning decision stands in the loop.
type Stage int

const (
	// StageCandidate marks a candidate that was costed and cleared the
	// what-if gate (it entered the adoption pick, but only the best per pass
	// is adopted).
	StageCandidate Stage = iota
	// StageRejected marks a candidate that was costed and failed the gate:
	// estimated win below threshold, or over the memory budget.
	StageRejected
	// StageAdopted marks a built and installed candidate; a shadow trial is
	// now open on it.
	StageAdopted
	// StageKept marks a passed shadow trial: the adoption is final.
	StageKept
	// StageDropped marks a failed shadow trial: observed work per call
	// regressed past the gate and the adoption was reverted.
	StageDropped
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageCandidate:
		return "candidate"
	case StageRejected:
		return "rejected"
	case StageAdopted:
		return "adopted"
	case StageKept:
		return "kept"
	case StageDropped:
		return "dropped"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Kind is the class of tuning object a decision is about.
type Kind int

const (
	// KindIndex is a secondary index on one column.
	KindIndex Kind = iota
	// KindView is a materialized two-table join view.
	KindView
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindIndex:
		return "index"
	case KindView:
		return "view"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TuningEvent is one entry of the decision ledger. Estimated numbers
// (EstBase, EstWith, BuildCost, NetWin) are optimizer cost units over the
// mined workload; observed numbers (BaselineWPC, ObservedWPC) are executed
// work units per call on the statements the candidate was expected to help.
type TuningEvent struct {
	Seq    int64
	At     time.Time
	Stage  Stage
	Kind   Kind
	Target string
	// TableID is the indexed table (KindIndex) or the view's catalog table
	// once built (KindView; -1 before adoption). Col is the indexed column,
	// -1 for views.
	TableID int
	Col     int
	// EstBase/EstWith are the call-weighted estimated workload costs without
	// and with the candidate; BuildCost is the charged one-time build;
	// NetWin = EstBase - EstWith - BuildCost. SizeBytes is the estimated
	// footprint at costing time and the actual one from adoption on.
	EstBase   float64
	EstWith   float64
	BuildCost float64
	NetWin    float64
	SizeBytes int64
	// BaselineWPC is the pre-adoption observed work per call; ObservedWPC
	// and TrialCalls describe the shadow trial (Kept/Dropped stages).
	BaselineWPC float64
	ObservedWPC float64
	TrialCalls  int64
}

// tuningSchema is the one declaration of the ledger's exported forms: the
// "tuning" JSONL line and the sys_tuning view. Views hold int64 values, so
// there stages and kinds are their integer codes, estimated costs are
// rounded to whole units and the per-call figures are milli-scaled.
var tuningSchema = obs.NewSchema("tuning",
	obs.Int("seq", func(e TuningEvent) int64 { return e.Seq }),
	obs.Int("at_ms", func(e TuningEvent) int64 { return e.At.UnixMilli() }),
	obs.Enum("stage", func(e TuningEvent) Stage { return e.Stage }),
	obs.Enum("kind", func(e TuningEvent) Kind { return e.Kind }),
	obs.JSON("target", func(e TuningEvent) string { return e.Target }),
	obs.Int("table_id", func(e TuningEvent) int64 { return int64(e.TableID) }),
	obs.Int("col", func(e TuningEvent) int64 { return int64(e.Col) }),
	obs.Round("est_base", func(e TuningEvent) float64 { return e.EstBase }),
	obs.Round("est_with", func(e TuningEvent) float64 { return e.EstWith }),
	obs.Round("build_cost", func(e TuningEvent) float64 { return e.BuildCost }),
	obs.Round("net_win", func(e TuningEvent) float64 { return e.NetWin }),
	obs.Int("size_bytes", func(e TuningEvent) int64 { return e.SizeBytes }),
	obs.Milli("baseline_wpc", func(e TuningEvent) float64 { return e.BaselineWPC }),
	obs.Milli("observed_wpc", func(e TuningEvent) float64 { return e.ObservedWPC }),
	obs.Int("trial_calls", func(e TuningEvent) int64 { return e.TrialCalls }),
)

// emitLocked stamps one event, appends it to the ledger and adds it to the
// current tick's scratch list.
func (a *Autopilot) emitLocked(now time.Time, ev TuningEvent) {
	ev.At = now
	a.scratch = append(a.scratch, a.ledger.Append(ev))
}

// Events returns the retained ledger, oldest first.
func (a *Autopilot) Events() []TuningEvent {
	if a == nil {
		return nil
	}
	return a.ledger.Snapshot()
}

// ViewTuning is the system-view table name RegisterTuningView claims.
const ViewTuning = "sys_tuning"

// RegisterTuningView registers the sys_tuning virtual table over a, making
// the decision ledger queryable with plain SELECTs through the normal
// planner/executor. Registration follows catalog.RegisterVirtual's
// idempotence contract.
func RegisterTuningView(cat *catalog.Catalog, a *Autopilot) error {
	v := tuningSchema.View(a.ledger.Len, a.Events)
	return catalog.RegisterVirtual(cat, ViewTuning, v.Columns(), v)
}

// WriteEventsJSONL exports the ledger, one JSON line per event in Seq order;
// like the querystore JSONL, the field set is stable and replays
// byte-identically under a ManualClock.
func (a *Autopilot) WriteEventsJSONL(w io.Writer) error {
	return tuningSchema.WriteJSONL(w, a.Events()...)
}

// LedgerFormat is the exported ledger's file format, for obs.ValidateJSONL.
var LedgerFormat = obs.Format{Name: "tuning", Lines: []obs.LineSpec{tuningSchema.Line("")}}
