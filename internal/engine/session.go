package engine

import (
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// Session is one logical client of the engine. Fields are read at each Run,
// so a session can be reconfigured between queries; a session must not be
// used from multiple goroutines at once (create one per goroutine — they are
// cheap, and the engine underneath is shared and concurrent-safe).
type Session struct {
	eng *Engine

	// Hint constrains the optimizer's search space for this session's
	// queries (BAO-style steering). Defaults to the unconstrained hint set.
	Hint optimizer.HintSet
	// Budget overrides the engine's default per-query budget; nil inherits
	// it.
	Budget *exec.Budget
	// Analyze collects EXPLAIN ANALYZE stats into each Result.
	Analyze bool
}

// Run plans (through the shared cache) and executes q under the session's
// hint set and budget. It returns ErrOverloaded immediately when the engine
// is at its concurrency limit, and a *exec.BudgetExceededError (alongside
// the partial Result) when the query exceeds its budget.
func (s *Session) Run(q *plan.Query) (*Result, error) {
	if err := s.eng.admit(); err != nil {
		return nil, err
	}
	defer s.eng.release()
	return s.run(q, queryShape(q, s.Hint.Name), nil)
}

// run is the engine's query path under the session's settings, for an
// admitted query whose shape the caller computed. out is the requested
// output (nil: every column in leaf order).
func (s *Session) run(q *plan.Query, shape string, out *plan.Output) (*Result, error) {
	budget := s.Budget
	if budget == nil {
		budget = s.eng.opts.DefaultBudget
	}
	return s.eng.run(q, shape, out, s.Hint, budget, s.Analyze)
}
