// Package sqlparse parses a practical subset of SQL into the repository's
// plan.Query form plus the plan.Output the executor presents the result by:
//
//	SELECT {* | col[, col...]} FROM table[, table...]
//	  [WHERE cond AND cond...] [ORDER BY col [ASC|DESC][, ...]] [LIMIT n]
//
// Conditions are integer comparisons (=, !=, <, <=, >, >=), BETWEEN, and
// equi-joins between two tables; columns may be qualified (t.col) or bare
// when the name is unambiguous across the FROM list. Names resolve against
// a catalog.Catalog at parse time, so unknown tables and columns fail with
// positioned errors instead of planning failures. The parsed Stmt carries
// the plan.Query for the optimizer plus the SELECT list, ORDER BY keys, and
// LIMIT as (table position, column) references the caller hands to the
// executor with the plan — engine.Session.Query is the primary consumer,
// created so the querystore system views are reachable end to end in SQL.
package sqlparse
