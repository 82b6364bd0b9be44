package sqlparse

import (
	"math"
	"strings"
	"testing"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.NewCatalog()
	users := catalog.NewTable("users", "id", "age", "city")
	orders := catalog.NewTable("orders", "id", "user_id", "amount")
	cat.MustAdd(users)
	cat.MustAdd(orders)
	return cat
}

func TestParseSelectStar(t *testing.T) {
	cat := testCatalog(t)
	st, err := Parse(cat, "SELECT * FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cols != nil {
		t.Fatalf("SELECT * should leave Cols nil, got %v", st.Cols)
	}
	if len(st.Query.Tables) != 1 {
		t.Fatalf("tables = %v", st.Query.Tables)
	}
	if st.Limit != -1 {
		t.Fatalf("limit = %d, want -1", st.Limit)
	}
}

func TestParseFiltersAndBetween(t *testing.T) {
	cat := testCatalog(t)
	st, err := Parse(cat, "select age, city from users where age >= 18 and city != 3 and id between 10 and 20;")
	if err != nil {
		t.Fatal(err)
	}
	want := []plan.AggCol{{Table: 0, Col: 1}, {Table: 0, Col: 2}}
	if len(st.Cols) != 2 || st.Cols[0] != want[0] || st.Cols[1] != want[1] {
		t.Fatalf("cols = %v, want %v", st.Cols, want)
	}
	fs := st.Query.Filters[0]
	if len(fs) != 3 {
		t.Fatalf("filters = %v", fs)
	}
	if fs[0] != (expr.Pred{Col: 1, Op: expr.GE, Lo: 18}) {
		t.Errorf("filter 0 = %+v", fs[0])
	}
	if fs[1] != (expr.Pred{Col: 2, Op: expr.NE, Lo: 3}) {
		t.Errorf("filter 1 = %+v", fs[1])
	}
	if fs[2] != (expr.Pred{Col: 0, Op: expr.BETWEEN, Lo: 10, Hi: 20}) {
		t.Errorf("filter 2 = %+v", fs[2])
	}
}

func TestParseJoinAndQualified(t *testing.T) {
	cat := testCatalog(t)
	st, err := Parse(cat, "SELECT users.city, orders.amount FROM users, orders WHERE users.id = orders.user_id AND amount > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Query.Joins) != 1 {
		t.Fatalf("joins = %v", st.Query.Joins)
	}
	j := st.Query.Joins[0]
	if j.LeftTable != 0 || j.LeftCol != 0 || j.RightTable != 1 || j.RightCol != 1 {
		t.Fatalf("join = %+v", j)
	}
	// `amount` is unqualified but unique to orders.
	fs := st.Query.Filters[1]
	if len(fs) != 1 || fs[0] != (expr.Pred{Col: 2, Op: expr.GT, Lo: 100}) {
		t.Fatalf("orders filters = %v", fs)
	}
}

func TestParseOrderByLimit(t *testing.T) {
	cat := testCatalog(t)
	st, err := Parse(cat, "SELECT * FROM users ORDER BY age DESC, id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.OrderBy) != 2 {
		t.Fatalf("order by = %v", st.OrderBy)
	}
	if st.OrderBy[0] != (plan.OrderKey{Col: plan.AggCol{Table: 0, Col: 1}, Desc: true}) {
		t.Errorf("key 0 = %+v", st.OrderBy[0])
	}
	if st.OrderBy[1] != (plan.OrderKey{Col: plan.AggCol{Table: 0, Col: 0}}) {
		t.Errorf("key 1 = %+v", st.OrderBy[1])
	}
	if st.Limit != 5 {
		t.Fatalf("limit = %d", st.Limit)
	}
}

func TestParseNegativeLiteral(t *testing.T) {
	cat := testCatalog(t)
	st, err := Parse(cat, "SELECT * FROM users WHERE age > -5")
	if err != nil {
		t.Fatal(err)
	}
	if st.Query.Filters[0][0].Lo != -5 {
		t.Fatalf("filter = %+v", st.Query.Filters[0][0])
	}
}

// TestParseInt64Extremes: both ends of the int64 range are valid literals.
// The smallest has no positive counterpart, so the sign must be parsed with
// the digits; one past either end is out of range.
func TestParseInt64Extremes(t *testing.T) {
	cat := testCatalog(t)
	for _, tc := range []struct {
		lit  string
		want int64
	}{
		{"-9223372036854775808", math.MinInt64},
		{"9223372036854775807", math.MaxInt64},
	} {
		st, err := Parse(cat, "SELECT * FROM users WHERE age >= "+tc.lit+" AND id BETWEEN "+tc.lit+" AND "+tc.lit)
		if err != nil {
			t.Fatalf("%s: %v", tc.lit, err)
		}
		fs := st.Query.Filters[0]
		if fs[0].Lo != tc.want || fs[1].Lo != tc.want || fs[1].Hi != tc.want {
			t.Errorf("%s parsed as %+v", tc.lit, fs)
		}
	}
	for _, lit := range []string{"-9223372036854775809", "9223372036854775808"} {
		if _, err := Parse(cat, "SELECT * FROM users WHERE age < "+lit); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: err = %v, want an out-of-range error naming the literal", lit, err)
		} else if !strings.Contains(err.Error(), lit) {
			t.Errorf("%s: error %q does not quote the literal as written", lit, err)
		}
	}
}

// TestParseNegativeLiteralAllocContract: a negative literal costs no
// allocation a positive one does not; its digits are parsed where they lie.
func TestParseNegativeLiteralAllocContract(t *testing.T) {
	cat := testCatalog(t)
	allocs := func(sql string) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := Parse(cat, sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	pos, neg := allocs("SELECT * FROM users WHERE age > 5"), allocs("SELECT * FROM users WHERE age > -5")
	if neg != pos {
		t.Errorf("age > -5 allocates %.0f times, age > 5 %.0f", neg, pos)
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		sql  string
		frag string
	}{
		{"FROM users", "expected SELECT"},
		{"SELECT * FROM nope", `unknown table "nope"`},
		{"SELECT bogus FROM users", `no FROM table has a column "bogus"`},
		{"SELECT id FROM users, orders", "ambiguous"},
		{"SELECT * FROM users WHERE users.id = users.age", "both sides"},
		{"SELECT * FROM users WHERE age ~ 3", "unexpected character"},
		{"SELECT * FROM users LIMIT -1", "negative LIMIT"},
		{"SELECT * FROM users extra", "unexpected"},
		{"SELECT * FROM users WHERE orders.id = 1", "not in the FROM list"},
	}
	for _, c := range cases {
		_, err := Parse(cat, c.sql)
		if err == nil {
			t.Errorf("%q: expected error", c.sql)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error %q does not contain %q", c.sql, err, c.frag)
		}
	}
}
