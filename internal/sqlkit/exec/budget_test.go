package exec

import (
	"errors"
	"testing"

	"ml4db/internal/sqlkit/plan"
)

func TestBudgetRowLimitAborts(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	// The join materializes 4+4 scan rows plus 5 join rows; a row budget of 6
	// must trip partway through.
	_, err := e.Execute(joinPlanOver(plan.OpHashJoin), Options{Budget: &Budget{MaxRows: 6}})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExceededError", err)
	}
	if be.Kind != "rows" {
		t.Errorf("Kind = %q, want \"rows\"", be.Kind)
	}
	if be.Limit != 6 || be.Used != 7 {
		t.Errorf("Limit/Used = %d/%d, want 6/7", be.Limit, be.Used)
	}
	// The typed error still matches the legacy sentinel.
	if !errors.Is(err, ErrWorkBudgetExceeded) {
		t.Errorf("errors.Is(err, ErrWorkBudgetExceeded) = false, want true")
	}
}

func TestBudgetWorkLimitCarriesDetail(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	_, err := e.Execute(joinPlanOver(plan.OpNLJoin), Options{Budget: &Budget{MaxWork: 3}})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExceededError", err)
	}
	if be.Kind != "work" {
		t.Errorf("Kind = %q, want \"work\"", be.Kind)
	}
	if be.Limit != 3 || be.Used != 4 {
		t.Errorf("Limit/Used = %d/%d, want 3/4 (abort on the first unit past the limit)", be.Limit, be.Used)
	}
}

func TestBudgetAbortIsDeterministic(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	// A budget abort must consume exactly the same work on every replay —
	// budgets count work units and rows, never wall time.
	var works []int64
	for i := 0; i < 3; i++ {
		res, err := e.Execute(joinPlanOver(plan.OpNLJoin), Options{Budget: &Budget{MaxWork: 11}})
		if !errors.Is(err, ErrWorkBudgetExceeded) {
			t.Fatalf("run %d: err = %v, want budget abort", i, err)
		}
		works = append(works, res.Work)
	}
	if works[0] != works[1] || works[1] != works[2] {
		t.Errorf("abort points differ across replays: %v", works)
	}
}

func TestBudgetZeroMeansUnlimited(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	res, err := e.Execute(joinPlanOver(plan.OpHashJoin), Options{Budget: &Budget{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != expectedJoinRows {
		t.Errorf("rows = %d, want %d", len(res.Rows), expectedJoinRows)
	}
}
