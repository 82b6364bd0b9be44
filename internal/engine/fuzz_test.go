package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/exec"
)

// fuzzCatalog is the catalog of sqlparse's FuzzParse (users, orders) with
// rows: 40 users over 7 ages and 5 cities, 60 orders over the users, and an
// index on users.age, so a statement can be answered by an IndexScan.
func fuzzCatalog(tb testing.TB) *catalog.Catalog {
	tb.Helper()
	cat := catalog.NewCatalog()
	users := catalog.NewTable("users", "id", "age", "city")
	orders := catalog.NewTable("orders", "id", "user_id", "amount")
	for i := int64(0); i < 60; i++ {
		if i < 40 {
			if err := users.AppendRow([]int64{i, 18 + i%7, i % 5}); err != nil {
				tb.Fatal(err)
			}
		}
		if err := orders.AppendRow([]int64{i, (i * 7) % 40, 50 + (i*37)%200}); err != nil {
			tb.Fatal(err)
		}
	}
	cat.MustAdd(users)
	cat.MustAdd(orders)
	users.AddIndex(catalog.BuildSecondaryIndex(users, 1))
	cat.AnalyzeAll(8, 64)
	return cat
}

// fuzzParseSeeds returns the texts of sqlparse's committed FuzzParse corpus.
func fuzzParseSeeds(tb testing.TB) []string {
	tb.Helper()
	paths, err := filepath.Glob("../sqlkit/sqlparse/testdata/fuzz/FuzzParse/*")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no FuzzParse corpus (err %v)", err)
	}
	var seeds []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		// A corpus file is the header line and one string(...) value.
		_, lit, ok := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		sql, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			tb.Fatalf("%s: not a one-string corpus file (%v)", path, err)
		}
		seeds = append(seeds, sql)
	}
	return seeds
}

// FuzzSessionQuery is the differential check of the statement memo and the
// session's arena: for any text, Session.Query never panics, and the same text
// sent again on the same session (a memo hit once it parsed), after a
// statement of another width and plan size has run in between, returns what
// the first call returned — the same error, or the same column names, rows,
// work, counters and per-operator actuals — and so does an engine that never
// saw a text before. A stale column header, need mask or actual left in the
// arena by the statement in between shows as a difference. The work budget
// keeps cross products of arbitrary FROM lists cheap; an abort is an error
// like any other and must repeat exactly. The seeds are sqlparse's FuzzParse
// corpus; fuzz with go test -run '^$' -fuzz FuzzSessionQuery ./internal/engine/.
func FuzzSessionQuery(f *testing.F) {
	cat := fuzzCatalog(f)
	for _, sql := range fuzzParseSeeds(f) {
		f.Add(sql)
	}
	session := func() *engine.Session {
		s := engine.New(cat, engine.Options{}).Session()
		s.Budget = &exec.Budget{MaxWork: 20_000, MaxRows: 5_000}
		return s
	}
	shared := session()
	// Run between the two calls: a 6-column, 3-operator top-N after a
	// statement of more than one column or operator, else a 1-column IndexScan.
	const (
		wide   = "SELECT * FROM users, orders WHERE users.id = orders.user_id AND orders.amount >= 100 ORDER BY orders.amount DESC, orders.id LIMIT 9"
		narrow = "SELECT age FROM users WHERE age = 20"
	)
	f.Fuzz(func(t *testing.T, sql string) {
		first, errFirst := shared.Query(sql)
		between := wide
		var ran measured
		if errFirst == nil {
			if len(first.Columns) > 1 || first.Exec.Plan.NumNodes() > 1 {
				between = narrow
			}
			ran = measuredOf(first.Exec.Result)
			first = kept(first) // the next Query on shared overwrites it
		}
		if _, err := shared.Query(between); err != nil {
			t.Fatalf("%s: %v", between, err)
		}
		again, errAgain := shared.Query(sql)
		fresh, errFresh := session().Query(sql)
		for what, c := range map[string]struct {
			rr  *engine.RowsResult
			err error
		}{"again": {again, errAgain}, "on a fresh engine": {fresh, errFresh}} {
			if fmt.Sprint(c.err) != fmt.Sprint(errFirst) {
				t.Fatalf("%q: error %v %s, first %v", sql, c.err, what, errFirst)
			}
			if errFirst != nil {
				continue
			}
			if got := measuredOf(c.rr.Exec.Result); !reflect.DeepEqual(c.rr.Columns, first.Columns) || !reflect.DeepEqual(got, ran) {
				t.Fatalf("%q: %s columns %v, %d rows, work %d, actuals %v; first %v, %d rows, work %d, actuals %v",
					sql, what, c.rr.Columns, len(got.rows), got.work, got.actuals, first.Columns, len(ran.rows), ran.work, ran.actuals)
			}
		}
	})
}
