package querystore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
)

// The record schemas: each is the one declaration its JSONL line, its
// validator entry and its sys_* view are derived from. Field sets are
// stable — cmd/ml4db-tracecheck and the scripts/check.sh smoke gate fail if
// a required field disappears — and under a ManualClock two replays of the
// same workload export byte-identical files. Views hold int64 values, so
// fractional metrics appear there milli-scaled (see obs.Milli).

// exportHeader is the export's first line: schema version, section counts.
type exportHeader struct {
	Statements, Heat, Windows, Drift, Models int
	Dropped                                  int64
}

var (
	headerSchema = obs.NewSchema("querystore",
		obs.Int("schema", func(exportHeader) int64 { return 1 }),
		obs.Int("statements", func(h exportHeader) int64 { return int64(h.Statements) }),
		obs.Int("heat", func(h exportHeader) int64 { return int64(h.Heat) }),
		obs.Int("windows", func(h exportHeader) int64 { return int64(h.Windows) }),
		obs.Int("drift", func(h exportHeader) int64 { return int64(h.Drift) }),
		obs.Int("models", func(h exportHeader) int64 { return int64(h.Models) }),
		obs.Int("dropped", func(h exportHeader) int64 { return h.Dropped }),
	)
	statementSchema = obs.NewSchema("statement",
		obs.Int("id", func(s StatementStats) int64 { return s.ID }).As("stmt_id"),
		obs.JSON("shape", func(s StatementStats) string { return s.Shape }),
		obs.Int("calls", func(s StatementStats) int64 { return s.Calls }),
		obs.Int("cache_hits", func(s StatementStats) int64 { return s.CacheHits }),
		obs.Int("fallbacks", func(s StatementStats) int64 { return s.Fallbacks }),
		obs.Int("budget_aborts", func(s StatementStats) int64 { return s.BudgetAborts }),
		obs.Int("total_work", func(s StatementStats) int64 { return s.TotalWork }),
		obs.Int("max_work", func(s StatementStats) int64 { return s.MaxWork }),
		obs.Int("total_rows", func(s StatementStats) int64 { return s.TotalRows }),
		obs.Int("page_misses", func(s StatementStats) int64 { return s.PageMisses }),
		obs.Int("qerr_count", func(s StatementStats) int64 { return s.QErrCount }),
		obs.Milli("qerr_mean", StatementStats.QErrMean),
		obs.Milli("qerr_max", func(s StatementStats) float64 { return s.QErrMax }),
		obs.Int("last_seen_window", func(s StatementStats) int64 { return s.LastWindow }),
		obs.Milli("rows_per_call", StatementStats.RowsPerCall),
	)
	heatSchema = obs.NewSchema("heat",
		obs.Int("table", func(h ColumnHeat) int64 { return int64(h.TableID) }),
		obs.Int("col", func(h ColumnHeat) int64 { return int64(h.Col) }),
		obs.Int("filters", func(h ColumnHeat) int64 { return h.FilterCount }),
		obs.Int("joins", func(h ColumnHeat) int64 { return h.JoinCount }),
		obs.Int("sel_count", func(h ColumnHeat) int64 { return h.SelCount }),
		obs.Milli("sel_mean", ColumnHeat.SelMean),
	)
	windowSchema = obs.NewSchema("window",
		obs.Int("id", func(w WindowStats) int64 { return w.Index }).As("window_id"),
		obs.Int("start_ms", func(w WindowStats) int64 { return w.Start.UnixMilli() }),
		obs.Int("end_ms", func(w WindowStats) int64 { return w.End.UnixMilli() }),
		obs.Int("queries", func(w WindowStats) int64 { return w.Queries }),
		obs.Int("cache_hits", func(w WindowStats) int64 { return w.CacheHits }),
		obs.Int("fallbacks", func(w WindowStats) int64 { return w.Fallbacks }),
		obs.Int("budget_aborts", func(w WindowStats) int64 { return w.BudgetAborts }),
		obs.Int("total_work", func(w WindowStats) int64 { return w.TotalWork }),
		obs.Int("total_rows", func(w WindowStats) int64 { return w.TotalRows }),
		obs.Int("page_misses", func(w WindowStats) int64 { return w.PageMisses }),
		obs.Int("pool_hits", func(w WindowStats) int64 { return w.PoolHits }),
		obs.Int("pool_misses", func(w WindowStats) int64 { return w.PoolMisses }),
		obs.List("qerr", func(w WindowStats) []VersionQErr { return w.QErr }, obs.NewSchema("",
			obs.Int("version", func(q VersionQErr) int64 { return int64(q.Version) }),
			obs.Int("count", func(q VersionQErr) int64 { return q.Count }),
			obs.JSON("mean", VersionQErr.Mean),
			obs.JSON("max", func(q VersionQErr) float64 { return q.Max }),
		)),
		obs.Milli("hit_rate", func(w WindowStats) float64 { r, _ := w.hitRate(); return r }).ViewOnly(),
	)
	driftSchema = obs.NewSchema("drift",
		obs.Int("seq", func(e DriftEvent) int64 { return e.Seq }),
		obs.Enum("kind", func(e DriftEvent) DriftKind { return e.Kind }),
		obs.Int("at_ms", func(e DriftEvent) int64 { return e.At.UnixMilli() }),
		obs.Int("est_version", func(e DriftEvent) int64 { return int64(e.EstimatorVersion) }),
		obs.Milli("before", func(e DriftEvent) float64 { return e.Before }),
		obs.Milli("after", func(e DriftEvent) float64 { return e.After }),
		obs.List("evidence", func(e DriftEvent) []WindowEvidence { return e.Evidence }, obs.NewSchema("",
			obs.Int("window", func(e WindowEvidence) int64 { return e.Window }),
			obs.JSON("value", func(e WindowEvidence) float64 { return e.Value }),
		)),
		obs.Int("evidence_windows", func(e DriftEvent) int64 { return int64(len(e.Evidence)) }).ViewOnly(),
	)
	modelSchema = obs.NewSchema("model",
		obs.Int("seq", func(e ModelEvent) int64 { return e.Seq }),
		obs.Int("at_ms", func(e ModelEvent) int64 { return e.At.UnixMilli() }),
		obs.Enum("action", func(e ModelEvent) ModelAction { return e.Action }),
		obs.Int("version", func(e ModelEvent) int64 { return int64(e.Version) }),
		obs.Int("incumbent", func(e ModelEvent) int64 { return int64(e.Incumbent) }),
	)
)

// WriteJSONL exports the store's sealed state: a header line, then
// statements (ID order), heat (table/column order), windows (seal order),
// drift events, and model events (emission order). The open window is not
// included — call Flush first to seal it.
func (s *Store) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	stmts := s.Statements()
	heat := s.Heat()
	wins := s.Windows()
	drift := s.DriftEvents()
	models := s.ModelEvents()
	return errors.Join(
		headerSchema.WriteJSONL(w, exportHeader{
			Statements: len(stmts), Heat: len(heat), Windows: len(wins),
			Drift: len(drift), Models: len(models), Dropped: s.DroppedStatements(),
		}),
		statementSchema.WriteJSONL(w, stmts...),
		heatSchema.WriteJSONL(w, heat...),
		windowSchema.WriteJSONL(w, wins...),
		driftSchema.WriteJSONL(w, drift...),
		modelSchema.WriteJSONL(w, models...),
	)
}

// ExportFormat is the export's file format: the schema-1 header, whose
// section counts must match the typed records that follow it.
var ExportFormat = obs.Format{Name: "querystore", Header: true, Lines: []obs.LineSpec{
	headerSchema.Line("").Checked(func(m map[string]json.RawMessage) error {
		var version int
		if err := json.Unmarshal(m["schema"], &version); err != nil || version != 1 {
			return fmt.Errorf("unsupported schema version %s", m["schema"])
		}
		return nil
	}),
	statementSchema.Line("statements"), heatSchema.Line("heat"), windowSchema.Line("windows"),
	driftSchema.Line("drift"), modelSchema.Line("models"),
}}

// ValidateJSONL checks a querystore export against ExportFormat. Returns
// the number of validated lines (header included).
func ValidateJSONL(r io.Reader) (int, error) { return ExportFormat.Validate(r) }

// The system-view table names RegisterViews claims in the catalog.
const (
	ViewStatements = "sys_statements"
	ViewWindows    = "sys_windows"
	ViewDrift      = "sys_drift"
	ViewModels     = "sys_models"
)

// RegisterViews registers the four querystore system views as virtual
// read-only tables served from s, making the observatory queryable with
// plain SELECTs through the normal planner/executor. Registration follows
// catalog.RegisterVirtual's idempotence contract.
func RegisterViews(cat *catalog.Catalog, s *Store) error {
	return errors.Join(
		registerView(cat, ViewStatements, statementSchema.View(s.numStatements, s.Statements)),
		registerView(cat, ViewWindows, windowSchema.View(s.windows.Len, s.Windows)),
		registerView(cat, ViewDrift, driftSchema.View(s.drift.events.Len, s.DriftEvents)),
		registerView(cat, ViewModels, modelSchema.View(s.models.Len, s.ModelEvents)),
	)
}

func registerView[T any](cat *catalog.Catalog, name string, v obs.View[T]) error {
	return catalog.RegisterVirtual(cat, name, v.Columns(), v)
}
