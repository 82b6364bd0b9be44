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
	// Budget bounds each query's work and materialized rows; nil is
	// unbounded.
	Budget *exec.Budget
	// Analyze collects EXPLAIN ANALYZE stats into each Result.
	Analyze bool

	// last is what Query returns, overwritten by the next Query.
	last queryMem
}

// queryMem is the memory a session's Query runs in and returns: the
// execution's arena (its state, Result and rows), the engine's Result, the
// statement's output mapped through a view rewrite, and the RowsResult.
type queryMem struct {
	arena  exec.Arena
	res    Result
	mapped plan.Output
	out    RowsResult
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
	return s.eng.run(q, queryShape(q, s.Hint.Name), nil, nil, s.Hint, s.Budget, s.Analyze)
}
